# Convenience targets; everything is plain `go` underneath.

# How long `test-fuzz` spends per fuzz target.
FUZZTIME ?= 5s

.PHONY: all build vet test test-diff test-fuzz test-race smoke-daemon cover bench bench-quick bench-json profile experiments experiments-quick examples-golden fmt

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
	go test -run='^$$' -fuzz='^FuzzFaultyResilientRun$$' -fuzztime=$(FUZZTIME) ./internal/search
	go test -run='^$$' -fuzz='^FuzzSubmit$$' -fuzztime=$(FUZZTIME) ./internal/service
	go test -run='^$$' -fuzz='^FuzzJobRoutes$$' -fuzztime=$(FUZZTIME) ./internal/service
	go test -run='^$$' -fuzz='^FuzzRunConfig$$' -fuzztime=$(FUZZTIME) ./internal/multihop
	go test -run='^$$' -fuzz='^FuzzPlan$$' -fuzztime=$(FUZZTIME) ./internal/replicate

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

# Regenerate BENCH_sim.json, the perf ledger: ns/op, allocs/op and
# events/sec per row, for the event-skipping engines vs the pinned
# reference loops, the replication pool vs one worker, and the layer
# rows. Commit the refreshed file with any PR that touches a hot loop.
# `go test ./cmd/bench` (TestBenchWritesJSON) runs every scenario once
# at quick durations, so the suite itself keeps the harness runnable.
bench-json:
	go run ./cmd/bench -out BENCH_sim.json

# Capture CPU and heap profiles of the n=1000 multihop scenario (the
# fire-slot calendar's home turf), then print the 15 functions with the
# most flat CPU time. Dig further with `go tool pprof cpu.pprof`.
profile:
	go run ./cmd/bench -quick -only mobile-n1000-w26 -benchtime 1s \
		-cpuprofile cpu.pprof -memprofile mem.pprof -out /tmp/bench-profile.json
	@echo "wrote cpu.pprof and mem.pprof"
	go tool pprof -top -nodecount=15 cpu.pprof

# Regenerate every paper table/figure into results/ (paper-faithful scale).
experiments:
	go run ./cmd/experiments -out results

# The fast smoke profile, written to a fresh temp dir so it never
# overwrites the paper-profile goldens in results/.
experiments-quick:
	out=$$(mktemp -d) && go run ./cmd/experiments -quick -out $$out && echo "wrote $$out"

# Regenerate each example's pinned output, examples/*/testdata/out.golden,
# which the example's own test compares byte for byte.
examples-golden:
	for d in examples/*/; do mkdir -p $${d}testdata && go run ./$$d > $${d}testdata/out.golden || exit 1; done

fmt:
	gofmt -w .
