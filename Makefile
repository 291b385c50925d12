# Convenience targets; everything is plain `go` underneath.

# How long `test-fuzz` spends per fuzz target.
FUZZTIME ?= 5s

.PHONY: all build vet test test-diff test-fuzz test-race smoke-daemon cover bench bench-quick bench-json bench-replicate bench-smoke profile experiments experiments-quick fmt

all: build test test-race

build:
	go build ./...

vet:
	go vet ./...

# The default test path: vet, the full suite (which replays every fuzz
# seed corpus), the engine-equivalence matrix, then a short live-fuzz
# pass over each target.
test: vet
	go test ./...
	$(MAKE) test-diff
	$(MAKE) test-fuzz

# Differential equivalence: the event-skipping engines must reproduce
# the reference loops bit for bit across the whole config matrix
# (heterogeneous CW, per-node frame times, mobility, churn, 500/1000-node
# grid-index paths), the event calendar must match an eager min-scan
# with entries filed wraps ahead, the grid spatial index must match the
# brute-force O(n²) scan element for element, and the replication layer
# must reproduce hand-written serial loops moment for moment at every
# worker count. Already part of `go test ./...`; this target runs just the
# matrix, verbosely. GOMAXPROCS=2 makes the shared worker pool
# (internal/parallel) actually interleave even on a 1-CPU host.
test-diff:
	GOMAXPROCS=2 go test -run='^TestDifferential' -v ./internal/calendar ./internal/macsim ./internal/multihop ./internal/replicate ./internal/topology

# `go test -fuzz` takes one target per invocation, so run them one by one.
test-fuzz:
	go test -run='^$$' -fuzz='^FuzzGeomSeriesSum$$' -fuzztime=$(FUZZTIME) ./internal/num
	go test -run='^$$' -fuzz='^FuzzBisect$$' -fuzztime=$(FUZZTIME) ./internal/num
	go test -run='^$$' -fuzz='^FuzzEstimateCWRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/detect
	go test -run='^$$' -fuzz='^FuzzMonitor$$' -fuzztime=$(FUZZTIME) ./internal/stream
	go test -run='^$$' -fuzz='^FuzzRunTerminates$$' -fuzztime=$(FUZZTIME) ./internal/search
	go test -run='^$$' -fuzz='^FuzzResilientRunTerminates$$' -fuzztime=$(FUZZTIME) ./internal/search
	go test -run='^$$' -fuzz='^FuzzSubmit$$' -fuzztime=$(FUZZTIME) ./internal/service

# The worker pool and the shared solver cache make the suite
# concurrency-heavy; run it under the race detector too, at GOMAXPROCS=2
# so the pool's workers interleave on any host.
test-race:
	GOMAXPROCS=2 go test -race ./...

# End-to-end daemon smoke under the race detector: boots selfishmacd
# in-process on an ephemeral port, runs a tiny replicate job to Done,
# overflows the queue to 429, cancels a running job, and drains on
# SIGTERM; a second boot streams a detect job's flag events over HTTP —
# plus the service package's own race-sensitive suite.
smoke-daemon:
	go test -race -run '^TestDaemon' -v ./cmd/selfishmacd
	go test -race ./internal/service

cover:
	go test -cover ./...

bench:
	go test -bench=. -benchmem ./...

# One iteration per benchmark: times the harness and smoke-checks every
# benchmark (including the solver-cache counters) in seconds, not minutes.
bench-quick:
	go test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# Regenerate BENCH_sim.json, the simulator perf trajectory: ns/op,
# allocs/op and events/sec for the event-skipping engines vs the pinned
# reference loops, per scenario. Commit the refreshed file with any PR
# that touches a simulator hot loop.
bench-json:
	go run ./cmd/bench -out BENCH_sim.json

# Smoke-check the bench harness itself: the smallest scenario set plus
# the sparse multihop scenario (whose fast engine must match the
# reference loop before it is timed), the adjacency delta-vs-rebuild and
# event-calendar scenarios, one iteration, quick durations, written to
# scratch files (never clobbers the committed BENCH_sim.json). CI runs
# this to catch scenario-setup bit-rot without asserting anything about
# timing.
bench-smoke:
	go run ./cmd/bench -quick -benchtime 1x -only macsim -out /tmp/bench-smoke.json
	go run ./cmd/bench -quick -benchtime 1x -only multihop/sparse-n50 -out /tmp/bench-smoke-multihop.json
	go run ./cmd/bench -quick -benchtime 1x -only delta -out /tmp/bench-smoke-delta.json
	go run ./cmd/bench -quick -benchtime 1x -only calendar -out /tmp/bench-smoke-calendar.json

# Capture CPU and heap profiles of the n=1000 multihop scenario (the
# fire-slot calendar's home turf), then print the 15 functions with the
# most flat CPU time. Dig further with `go tool pprof cpu.pprof`.
profile:
	go run ./cmd/bench -quick -only mobile-n1000-w26 -benchtime 1s \
		-cpuprofile cpu.pprof -memprofile mem.pprof -out /tmp/bench-profile.json
	@echo "wrote cpu.pprof and mem.pprof"
	go tool pprof -top -nodecount=15 cpu.pprof

# Regenerate BENCH_replicate.json, the replication-layer trajectory:
# fixed-R wall-clock at 1/2/4/8 workers plus the honest workers=NumCPU
# saturation row (speedup is bounded by GOMAXPROCS — the file records
# both), and adaptive-vs-fixed replication counts. Commit the refreshed file with any PR that
# touches internal/replicate or the engine lifecycles.
bench-replicate:
	go run ./cmd/bench -replicate -out BENCH_replicate.json

# Regenerate every paper table/figure into results/ (paper-faithful scale).
experiments:
	go run ./cmd/experiments -out results

experiments-quick:
	go run ./cmd/experiments -quick -out results

fmt:
	gofmt -w .
