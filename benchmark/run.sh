#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags, e.g.
#
#   bash benchmark/run.sh --workload mobile-n10000 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache and temporary files, the
# binary and span files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local

(cd "$root/benchmark" && go build -o "$out/selfishmac-bench" .)
cd "$root"
exec "$out/selfishmac-bench" "$@"
