// Command bench writes BENCH_sim.json, the repository's perf ledger.
// Most scenarios are a pair of rows over one bit-identical workload:
// the event-skipping production engines (macsim.Run, multihop.Simulate)
// against the pinned reference loops (macsim.RunReference,
// multihop.SimulateReference), the bucket-ring calendar against an
// eager min-scan, the adjacency view's delta step against a rebuild, the
// detection observer on against off, and the replication pool at
// GOMAXPROCS workers against one. Each row carries ns/op, allocs/op,
// bytes/op and events/sec, so regressions and speedups are measurable
// PR over PR; the console line also prints each pair's ratio. Layer rows
// (backoff/draw) time one package's own Benchmark function alone.
//
// Usage:
//
//	bench [-out BENCH_sim.json] [-quick] [-benchtime 1s] [-only substr]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The default profile runs paper-faithful scenario durations (seconds of
// simulated time per op); -quick shrinks them for smoke runs. -benchtime
// is forwarded to the testing package (e.g. "100ms" or "5x"); a count
// below layerMinIters is raised to it for layer rows.
//
// Events are channel events for macsim (success + collision busy
// periods), transmission attempts for multihop, directed links for the
// topology adjacency-build scenarios and replications for the
// replication pool; both rows of a scenario run the identical
// (bit-for-bit) trajectory, so their event counts match and events/sec
// is directly comparable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"selfishmac/internal/backoff"
	"selfishmac/internal/calendar"
	"selfishmac/internal/layerbench"
	"selfishmac/internal/macsim"
	"selfishmac/internal/multihop"
	"selfishmac/internal/phy"
	"selfishmac/internal/replicate"
	"selfishmac/internal/rng"
	"selfishmac/internal/stream"
	"selfishmac/internal/topology"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "bench: interrupt — writing partial results (interrupt again to force exit)")
		cancel()
		<-sigs
		fmt.Fprintln(os.Stderr, "bench: second interrupt — exiting now")
		os.Exit(130)
	}()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// EngineResult is one (scenario, engine) measurement.
type EngineResult struct {
	Name         string  `json:"name"`   // scenario/engine
	Engine       string  `json:"engine"` // "fast" or "reference"
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerRun int64   `json:"events_per_run"`
	EventsPerSec float64 `json:"events_per_sec"`
	Iterations   int     `json:"iterations"`
}

// File is the BENCH_sim.json schema. Extend it by appending scenarios in
// scenarios(); consumers must ignore unknown fields.
type File struct {
	Generated  string         `json:"generated"`
	GoVersion  string         `json:"go"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Profile    string         `json:"profile"` // "paper" or "quick"
	Note       string         `json:"note"`
	Benchmarks []EngineResult `json:"benchmarks"`
}

// scenario is one workload measured under both engines. runFast and
// runRef must simulate the identical trajectory; events is the per-run
// event count used for the events/sec rate. The labels default to
// "fast"/"reference"; the detection scenario relabels them
// "observed"/"plain" (same engine, observer hook on vs off). check, when
// set, runs before the first timed iteration and fails the run if the
// engines disagree, so no row is recorded for a wrong engine. A layer
// row sets bench instead: a package's own Benchmark function, timed as
// is and recorded under fastLabel alone, with no reference row.
type scenario struct {
	name      string
	events    int64
	fastLabel string
	refLabel  string
	runFast   func() error
	runRef    func() error
	check     func() error
	bench     func(*testing.B)
}

// macsimScenario builds a single-collision-domain workload: n nodes at
// the paper's efficient-NE CW for that population.
func macsimScenario(name string, w, n int, duration float64) (scenario, error) {
	cfg := macsim.Config{Run: backoff.Default(phy.Basic, backoff.Uniform(w, n), duration, 1)}
	probe, err := macsim.Run(cfg)
	if err != nil {
		return scenario{}, err
	}
	return scenario{
		name:   name,
		events: probe.SuccessEvents + probe.CollisionEvents,
		runFast: func() error {
			_, err := macsim.Run(cfg)
			return err
		},
		runRef: func() error {
			_, err := macsim.RunReference(cfg)
			return err
		},
	}, nil
}

// multihopScenario builds a spatial workload over a random-waypoint
// network snapshot. Each op reconstructs the network (microseconds,
// identical for both engines) because mobile runs mutate it. Its check
// runs SimulateReference on a twin of the probe's network and requires
// the probe's exact result.
func multihopScenario(name string, topoCfg topology.Config, cfg multihop.SimConfig) (scenario, error) {
	newNet := func() (*topology.Network, error) { return topology.New(topoCfg) }
	nw, err := newNet()
	if err != nil {
		return scenario{}, err
	}
	probe, err := multihop.Simulate(nw, cfg)
	if err != nil {
		return scenario{}, err
	}
	var events int64
	for _, nd := range probe.Nodes {
		events += nd.Attempts
	}
	return scenario{
		name:   name,
		events: events,
		runFast: func() error {
			nw, err := newNet()
			if err != nil {
				return err
			}
			_, err = multihop.Simulate(nw, cfg)
			return err
		},
		runRef: func() error {
			nw, err := newNet()
			if err != nil {
				return err
			}
			_, err = multihop.SimulateReference(nw, cfg)
			return err
		},
		check: func() error {
			nw, err := newNet()
			if err != nil {
				return err
			}
			ref, err := multihop.SimulateReference(nw, cfg)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(probe, ref) {
				return errors.New("Simulate and SimulateReference disagree")
			}
			return nil
		},
	}, nil
}

// warmMultihopScenario times ops on one persistent mobile network, the
// shape of the benchmark's mobile-n10000 workload: each op simulates
// cfg.Duration of MAC time on the network the previous op left, with a
// mobility step every cfg.MobilityEvery, each prepared ahead on a second
// goroutine while the engine runs. Unlike multihopScenario's rows, an op
// pays no topology.New and no cold adjacency build. The reference row
// walks its own twin network. The fast twin's first op runs here, as
// the warm-up and the probe; the check runs the reference twin's first
// op and requires the same result.
func warmMultihopScenario(name string, topoCfg topology.Config, cfg multihop.SimConfig) (scenario, error) {
	fastNet, err := topology.New(topoCfg)
	if err != nil {
		return scenario{}, err
	}
	refNet, err := topology.New(topoCfg)
	if err != nil {
		return scenario{}, err
	}
	probe, err := multihop.Simulate(fastNet, cfg)
	if err != nil {
		return scenario{}, err
	}
	var events int64
	for _, nd := range probe.Nodes {
		events += nd.Attempts
	}
	return scenario{
		name:   name,
		events: events,
		runFast: func() error {
			_, err := multihop.Simulate(fastNet, cfg)
			return err
		},
		runRef: func() error {
			_, err := multihop.SimulateReference(refNet, cfg)
			return err
		},
		check: func() error {
			ref, err := multihop.SimulateReference(refNet, cfg)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(probe, ref) {
				return errors.New("Simulate and SimulateReference disagree")
			}
			return nil
		},
	}, nil
}

// detectionScenario measures the streaming-detection observer's cost on
// the single-hop hot loop: the same reusable engine (10 nodes at the
// efficient-NE window, one Wc*/8 cheater) is timed with a stream.Monitor
// on the observer hook ("observed") and without one ("plain") — the
// trajectories are bit-identical, so events/sec is directly comparable
// and the ratio is the observer's overhead. Detection latency and false
// positives are measured by experiment D4, not here.
func detectionScenario(name string, quick bool) (scenario, error) {
	const n, expected, cheatCW = 10, 166, 20
	dur := 30e6
	if quick {
		dur = 3e6
	}
	cw := backoff.Uniform(expected, n)
	cw[0] = cheatCW
	base := macsim.Config{Run: backoff.Default(phy.Basic, cw, dur, 1)}
	plainEng, err := macsim.NewEngine(base)
	if err != nil {
		return scenario{}, err
	}
	mon, err := stream.NewMonitor(stream.Config{
		Nodes: n, WindowSlots: 1500,
		MaxStage: base.MaxStage, ExpectedCW: expected, Beta: 0.6,
	})
	if err != nil {
		return scenario{}, err
	}
	observed := base
	observed.Observer = mon
	obsEng, err := macsim.NewEngine(observed)
	if err != nil {
		return scenario{}, err
	}
	obsEng.Reset(base.Seed)
	probe := obsEng.Run()
	mon.Finish(probe.Slots)
	events := probe.SuccessEvents + probe.CollisionEvents

	return scenario{
		name:      name,
		events:    events,
		fastLabel: "observed",
		refLabel:  "plain",
		runFast: func() error {
			mon.Reset()
			obsEng.Reset(base.Seed)
			res := obsEng.Run()
			mon.Finish(res.Slots)
			return nil
		},
		runRef: func() error {
			plainEng.Reset(base.Seed)
			plainEng.Run()
			return nil
		},
	}, nil
}

// deltaStepScenario isolates the topology layer: one random-waypoint
// mobility step plus adjacency refresh, through the view's StepDelta
// (delta) vs stepped-then-refilled from the grid (rebuild), on
// twin networks walking the same PRNG trajectory. Events counts the
// directed links of the warmed-up snapshot. warmup seconds of simulated
// mobility run before measuring, so configurations with pause phases
// are sampled at their steady-state moving fraction rather than the
// everyone-mid-first-leg initial state. The check then steps both twins
// until their buffers stop growing (warmAllocs) and requires the same
// rows from both.
func deltaStepScenario(name string, topoCfg topology.Config, dt, warmup float64) (scenario, error) {
	va, err := topology.New(topoCfg)
	if err != nil {
		return scenario{}, err
	}
	vb, err := topology.New(topoCfg)
	if err != nil {
		return scenario{}, err
	}
	for done := 0.0; done < warmup; done += 20 {
		if err := va.Step(20); err != nil {
			return scenario{}, err
		}
		if err := vb.Step(20); err != nil {
			return scenario{}, err
		}
	}
	view := va.AdjacencyView()
	var events int64
	for _, l := range view.Rows() {
		events += int64(len(l))
	}
	var buf [][]int
	buf = vb.AdjacencyInto(buf)
	delta := func() error {
		_, err := view.StepDelta(dt)
		return err
	}
	rebuild := func() error {
		if err := vb.Step(dt); err != nil {
			return err
		}
		buf = vb.AdjacencyInto(buf)
		return nil
	}
	return scenario{
		name:      name,
		events:    events,
		fastLabel: "delta",
		refLabel:  "rebuild",
		runFast:   delta,
		runRef:    rebuild,
		check: func() error {
			if err := warmAllocs(delta, rebuild); err != nil {
				return err
			}
			// slices.Equal holds a row the view emptied equal to a nil one.
			if !slices.EqualFunc(view.Rows(), buf, slices.Equal[[]int]) {
				return errors.New("delta and rebuild rows differ after the warm-up")
			}
			return nil
		},
	}, nil
}

const (
	// warmZeroOps is how many consecutive allocation-free single ops
	// warmAllocs waits for, and warmMaxOps how many ops it runs at most.
	warmZeroOps = 10
	warmMaxOps  = 20000
)

// warmAllocs runs the ops in lockstep until each has run warmZeroOps
// single ops in a row without a malloc. An op that walks state forward
// (a mobility step) grows a buffer each time the walk reaches a new
// high-water mark, often for its first few hundred ops, so without the
// warm-up its allocs/op would be that growth averaged over however many
// iterations the timing picked. On the n=1000 rows the check reaches
// the run after ~600 (refill) and ~250 (patch) ops.
func warmAllocs(ops ...func() error) error {
	zero := make([]int, len(ops))
	var ms runtime.MemStats
	for range warmMaxOps {
		done := true
		for k, op := range ops {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if err := op(); err != nil {
				return err
			}
			runtime.ReadMemStats(&ms)
			if ms.Mallocs == before {
				zero[k]++
			} else {
				zero[k] = 0
			}
			done = done && zero[k] >= warmZeroOps
		}
		if done {
			return nil
		}
	}
	return fmt.Errorf("still allocating after %d warm-up ops", warmMaxOps)
}

// adjacencyScenario measures the topology-layer neighbor build alone:
// the cell-grid refill into reused buffers (fast) vs the pinned O(n²)
// linear scan (reference). Queries are read-only, so one network serves
// every iteration; events counts directed links built per op.
func adjacencyScenario(name string, topoCfg topology.Config) (scenario, error) {
	nw, err := topology.New(topoCfg)
	if err != nil {
		return scenario{}, err
	}
	var events int64
	for _, l := range nw.BruteForceAdjacencyLists() {
		events += int64(len(l))
	}
	var buf [][]int
	return scenario{
		name:   name,
		events: events,
		runFast: func() error {
			buf = nw.AdjacencyInto(buf)
			return nil
		},
		runRef: func() error {
			nw.BruteForceAdjacencyLists()
			return nil
		},
	}, nil
}

// calendarScenario isolates the event calendar both engines run on:
// each op replays the same trajectory of events events through the ring
// ("ring") and through an eager O(n) min-scan over the same slots
// ("scan"). Expired nodes redraw from cw << stage — the stage doubling
// up to maxStage when two or more expire together and resetting when
// one expires alone — and shifts random nodes per event move forward
// without telling the calendar, inside the span, the way carrier-sense
// freezes move multihop fire slots. The ring is sized to span.
func calendarScenario(name string, n, cw, maxStage int, span int64, shifts, events int) (scenario, error) {
	slots := make([]int64, n)
	stage := make([]int, n)
	expired := make([]int, 0, n)
	var ring calendar.Ring
	ring.Init(n, span)
	var src rng.Source
	var digest int64 // sum of event slots of the last replay
	replay := func(onRing bool) func() error {
		return func() error {
			src.Reseed(1)
			for i := range slots {
				stage[i], slots[i] = 0, int64(src.Intn(cw))
			}
			ring.Rebuild(slots)
			digest = 0
			for e := 0; e < events; e++ {
				var t int64
				if onRing {
					t, expired = ring.Next(slots, math.MaxInt64, expired[:0])
				} else {
					t, expired = layerbench.MinScan(slots, math.MaxInt64, expired[:0])
				}
				digest += t
				for _, i := range expired {
					if len(expired) == 1 {
						stage[i] = 0
					} else {
						stage[i] = min(stage[i]+1, maxStage)
					}
					slots[i] = t + 1 + int64(src.Intn(cw<<stage[i]))
					if onRing {
						ring.File(slots[i], int32(i))
					}
				}
				for k := 0; k < shifts; k++ {
					if i := src.Intn(n); slots[i] > t && slots[i]+63 < t+span {
						slots[i] += int64(src.Intn(64))
					}
				}
			}
			return nil
		}
	}
	sc := scenario{name: name, events: int64(events), fastLabel: "ring", refLabel: "scan",
		runFast: replay(true), runRef: replay(false)}
	if err := sc.runFast(); err != nil {
		return scenario{}, err
	}
	onRing := digest
	if err := sc.runRef(); err != nil {
		return scenario{}, err
	}
	if digest != onRing {
		return scenario{}, fmt.Errorf("%s: ring and scan trajectories diverge", name)
	}
	return sc, nil
}

// replicateScenario measures the replication layer's worker pool: one
// op is a fixed-R replicated measurement, reps replications of
// Simulate's payoff rate on topoCfg, run by GOMAXPROCS workers ("pool")
// and by one ("serial"). Each worker builds one reusable Simulator per
// op. The layer is bit-identical at any worker count, so check requires
// the two Results to be equal.
func replicateScenario(name string, topoCfg topology.Config, cfg multihop.SimConfig, reps int) (scenario, error) {
	nw, err := topology.New(topoCfg)
	if err != nil {
		return scenario{}, err
	}
	factory := func() (replicate.Replicator, error) {
		sim, err := multihop.NewSimulator(nw, cfg)
		if err != nil {
			return nil, err
		}
		return func(seed uint64, out []float64) error {
			sim.Reset(seed)
			res, err := sim.Run()
			if err != nil {
				return err
			}
			out[0] = res.GlobalPayoffRate()
			return nil
		}, nil
	}
	runAt := func(workers int) (*replicate.Result, error) {
		return replicate.Run(context.Background(),
			replicate.Plan{BaseSeed: 3, Stream: "bench.scaling", Metrics: 1,
				Schedule: replicate.Schedule{MaxReps: reps, Workers: workers}}, factory)
	}
	op := func(workers int) func() error {
		return func() error {
			_, err := runAt(workers)
			return err
		}
	}
	return scenario{
		name:      name,
		events:    int64(reps),
		fastLabel: "pool",
		refLabel:  "serial",
		runFast:   op(0),
		runRef:    op(1),
		check: func() error {
			pool, err := runAt(0)
			if err != nil {
				return err
			}
			serial, err := runAt(1)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(pool, serial) {
				return errors.New("pool and serial replication results differ")
			}
			return nil
		},
	}, nil
}

// scenarios assembles the suite. quick shrinks simulated durations; the
// default profile is paper-faithful (1000 s single-hop runs in the NE
// tables use the same engine; here 20 s keeps a full bench under a few
// minutes while still dominated by the hot loop).
func scenarios(quick bool) ([]scenario, error) {
	shDur, mhDur := 20e6, 60e6 // microseconds of simulated time per op
	if quick {
		shDur, mhDur = 1e6, 1e6
	}
	// Layer rows: one event is one op of the package benchmark.
	out := []scenario{{name: "backoff", fastLabel: "draw", events: 1, bench: layerbench.Draw}}

	s, err := macsimScenario("macsim/basic-n20-w336", 336, 20, shDur)
	if err != nil {
		return nil, err
	}
	out = append(out, s)
	s, err = macsimScenario("macsim/basic-n50-w879", 879, 50, shDur)
	if err != nil {
		return nil, err
	}
	out = append(out, s)

	// The event calendar alone, in both engines' regimes: macsim's sparse
	// one (20 nodes, a ring sized to the stage-0 window that backed-off
	// draws wrap, long idle gaps) and multihop's dense one (10,000 nodes
	// over a fixed horizon the ring covers — mobile-n10000's CW 26 at
	// stage 6 — with a few stale repairs per event).
	s, err = calendarScenario("calendar/sparse-n20-w336", 20, 336, 6, 336, 0, 20000)
	if err != nil {
		return nil, err
	}
	out = append(out, s)
	s, err = calendarScenario("calendar/dense-n10000-w1664", 10000, 26<<6, 0, 26<<6+64, 8, 5000)
	if err != nil {
		return nil, err
	}
	out = append(out, s)

	// The streaming-detection observer on the same hot loop.
	s, err = detectionScenario("macsim/detection-n10-w166", quick)
	if err != nil {
		return nil, err
	}
	out = append(out, s)

	// Sparse 50-node network (mean degree ~4): the acceptance scenario.
	sparse := topology.Config{N: 50, Width: 1000, Height: 1000, Range: 180, Seed: 11}
	simCfg := multihop.DefaultSimConfig(mhDur, 7)
	simCfg.CW = backoff.Uniform(116, 50)
	s, err = multihopScenario("multihop/sparse-n50-w116", sparse, simCfg)
	if err != nil {
		return nil, err
	}
	out = append(out, s)

	// Worker scaling of the replication layer on the same network: 16
	// replications of 10 s each.
	repCfg := simCfg
	repCfg.Duration = 10e6
	if quick {
		repCfg.Duration = 5e5
	}
	s, err = replicateScenario("replicate/sparse-n50-w116", sparse, repCfg, 16)
	if err != nil {
		return nil, err
	}
	out = append(out, s)

	// The paper's Section VII.B mobile scenario at the converged Wm.
	paper := topology.PaperConfig(13)
	mob := multihop.DefaultSimConfig(mhDur, 9)
	mob.CW = backoff.Uniform(26, paper.N)
	mob.MobilityEvery = 1e6
	s, err = multihopScenario("multihop/mobile-n100-w26", paper, mob)
	if err != nil {
		return nil, err
	}
	out = append(out, s)

	// Large-n grid scenarios: the paper's density (100 nodes in 1000 m² at
	// Range 250) held constant by growing the area with sqrt(n/100), so
	// mean degree stays ~20 while the grid gains real cells to prune.
	// Shorter stage durations keep the reference loop — O(n) work per
	// slot — tractable at these sizes.
	mh500, mh1000 := 5e6, 2e6
	if quick {
		mh500, mh1000 = 5e5, 2e5
	}
	big := topology.Config{N: 500, Width: 2236, Height: 2236, Range: 250, MaxSpeed: 5, Seed: 17}
	cfg500 := multihop.DefaultSimConfig(mh500, 17)
	cfg500.CW = backoff.Uniform(26, 500)
	cfg500.MobilityEvery = 1e6
	s, err = multihopScenario("multihop/mobile-n500-w26", big, cfg500)
	if err != nil {
		return nil, err
	}
	out = append(out, s)
	huge := topology.Config{N: 1000, Width: 3162, Height: 3162, Range: 250, MaxSpeed: 5, Seed: 19}
	cfg1000 := multihop.DefaultSimConfig(mh1000, 19)
	cfg1000.CW = backoff.Uniform(26, 1000)
	cfg1000.MobilityEvery = 5e5
	s, err = multihopScenario("multihop/mobile-n1000-w26", huge, cfg1000)
	if err != nil {
		return nil, err
	}
	out = append(out, s)

	// Population scale: n=5000 and n=10000 at the same density, the
	// regime the fire-slot calendar exists for — the old per-event O(n)
	// min-scan grew linearly with n while the event's real work (one
	// neighborhood) stayed constant. Durations shrink again to keep the
	// reference loop — O(n) per slot — to seconds per op.
	mh5000, mh10000 := 1e6, 5e5
	if quick {
		mh5000, mh10000 = 1e5, 5e4
	}
	giant := topology.Config{N: 5000, Width: 7071, Height: 7071, Range: 250, MaxSpeed: 5, Seed: 23}
	cfg5000 := multihop.DefaultSimConfig(mh5000, 23)
	cfg5000.CW = backoff.Uniform(26, 5000)
	cfg5000.MobilityEvery = 5e5
	s, err = multihopScenario("multihop/mobile-n5000-w26", giant, cfg5000)
	if err != nil {
		return nil, err
	}
	out = append(out, s)
	colossal := topology.Config{N: 10000, Width: 10000, Height: 10000, Range: 250, MaxSpeed: 5, Seed: 29}
	cfg10000 := multihop.DefaultSimConfig(mh10000, 29)
	cfg10000.CW = backoff.Uniform(26, 10000)
	cfg10000.MobilityEvery = 2.5e5
	s, err = multihopScenario("multihop/mobile-n10000-w26", colossal, cfg10000)
	if err != nil {
		return nil, err
	}
	out = append(out, s)
	// The same shape on one persistent network, as the benchmark's
	// mobile-n10000 workload runs it: 0.5 s ops of 0.25 s steps. The row
	// above pays topology.New and a cold adjacency build per op; this
	// one pays only the engine and the mobility steps.
	warm := cfg10000
	if quick {
		warm.MobilityEvery = 2.5e4
	}
	s, err = warmMultihopScenario("multihop/mobile-n10000-w26-warm", colossal, warm)
	if err != nil {
		return nil, err
	}
	out = append(out, s)

	// Adjacency maintenance at the topology layer: one mobility step +
	// adjacency refresh through the view (delta) vs Step + AdjacencyInto
	// (rebuild), in two churn regimes. Continuous random waypoint moves
	// every node every step, so the view takes its bulk refill; the
	// classic paused RWP (long pause phases) moves only a fraction of
	// nodes per step, so the view patches and its cost tracks the change,
	// not the population. The pair brackets the view's patch-vs-bulk
	// crossover (topology.bulkMovedPercent).
	s, err = deltaStepScenario("topology/delta-vs-rebuild-n1000", huge, 0.25, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, s)
	paused := topology.Config{N: 1000, Width: 3162, Height: 3162, Range: 250, MinSpeed: 5, MaxSpeed: 20, Pause: 600, Seed: 19}
	s, err = deltaStepScenario("topology/delta-vs-rebuild-n1000-paused", paused, 0.25, 4000)
	if err != nil {
		return nil, err
	}
	out = append(out, s)

	// The adjacency build in isolation: how much of the n² the grid
	// actually removes at these populations.
	s, err = adjacencyScenario("topology/adjacency-n500", big)
	if err != nil {
		return nil, err
	}
	out = append(out, s)
	s, err = adjacencyScenario("topology/adjacency-n1000", huge)
	if err != nil {
		return nil, err
	}
	out = append(out, s)
	s, err = adjacencyScenario("topology/adjacency-n10000", colossal)
	if err != nil {
		return nil, err
	}
	out = append(out, s)
	return out, nil
}

// measure runs bench under testing.Benchmark and folds in the
// scenario's deterministic event count. A benchmark that fails (b.Fatal)
// makes testing.Benchmark return a zero result, which measure reports as
// an error rather than a row of zeros.
func measure(name, engine string, events int64, bench func(*testing.B)) (EngineResult, error) {
	r := testing.Benchmark(bench)
	if r.N == 0 {
		return EngineResult{}, fmt.Errorf("%s/%s: benchmark failed", name, engine)
	}
	ns := float64(r.T.Nanoseconds()) / float64(r.N) // unrounded: a layer op takes a few ns
	res := EngineResult{
		Name:         name + "/" + engine,
		Engine:       engine,
		NsPerOp:      ns,
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		EventsPerRun: events,
		Iterations:   r.N,
	}
	if ns > 0 {
		res.EventsPerSec = float64(events) / (ns / 1e9)
	}
	return res, nil
}

// layerMinIters floors an iteration-count -benchtime for layer rows. A
// layer op takes nanoseconds, and the testing package's allocation
// counter is process-wide: at a handful of iterations the row would time
// the clock and charge the op with any allocation the runtime makes
// meanwhile (at 1x, backoff/draw intermittently read 5 allocs/op).
const layerMinIters = 10000

// measureLayer times a layer row at the requested -benchtime, raising an
// iteration count below layerMinIters to it.
func measureLayer(sc scenario, benchtime string) (EngineResult, error) {
	if n, err := strconv.Atoi(strings.TrimSuffix(benchtime, "x")); err == nil && strings.HasSuffix(benchtime, "x") && n < layerMinIters {
		if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", layerMinIters)); err != nil {
			return EngineResult{}, err
		}
		defer flag.Set("test.benchtime", benchtime)
	}
	return measure(sc.name, sc.fastLabel, sc.events, sc.bench)
}

// allocPasses is how many single ops measureOp counts allocations over
// after the timed loop.
const allocPasses = 3

// measureOp times one scenario op, failing on the op's first error. Its
// allocs/op is the least of the timed loop's average and allocPasses
// single-op counts. Every one of them reads the process-wide malloc
// counter, so each over-counts by whatever the runtime allocated
// meanwhile (a timer-heap growth in the background scavenger, a GC mark
// worker starting) and never under-counts; the least is the op's own
// count as soon as one window saw no runtime allocation. A row timed at
// a handful of iterations would otherwise carry such a stray in its
// average. Ops that walk state forward (the topology delta rows) are
// warmed past their buffer growth first (warmAllocs), so their single
// ops read their steady state too.
func measureOp(name, engine string, events int64, fn func() error) (EngineResult, error) {
	var opErr error
	res, err := measure(name, engine, events, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if opErr = fn(); opErr != nil {
				b.Fatal(opErr)
			}
		}
	})
	if opErr != nil {
		return EngineResult{}, fmt.Errorf("%s/%s: %w", name, engine, opErr)
	}
	if err != nil {
		return res, err
	}
	var ms runtime.MemStats
	for range allocPasses {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := fn(); err != nil {
			return EngineResult{}, fmt.Errorf("%s/%s: %w", name, engine, err)
		}
		runtime.ReadMemStats(&ms)
		res.AllocsPerOp = min(res.AllocsPerOp, int64(ms.Mallocs-before))
	}
	return res, nil
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("out", "BENCH_sim.json", "output JSON file")
	quick := fs.Bool("quick", false, "shrink simulated durations (smoke profile)")
	benchtime := fs.String("benchtime", "1s", "per-benchmark time or iteration count (forwarded to the testing package, e.g. 200ms or 3x)")
	only := fs.String("only", "", "run only scenarios whose name contains this substring")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file when the run completes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			}
		}()
	}
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return fmt.Errorf("invalid -benchtime: %w", err)
	}
	suite, err := scenarios(*quick)
	if err != nil {
		return err
	}
	profile := "paper"
	if *quick {
		profile = "quick"
	}
	file := File{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Profile:    profile,
		Note: "ns/op, allocs/op, bytes/op and events/sec for the event-skipping simulator " +
			"engines (fast) vs the pinned reference loops, and for the replication pool vs " +
			"one worker. Layer rows (backoff/draw) time one package benchmark alone. " +
			"The multihop/mobile-* rows build their network per op, so their fast ops " +
			"include topology.New and a cold adjacency build; multihop/mobile-n10000-w26-warm " +
			"runs the same ops on one persistent network, as the benchmark's mobile-n10000 " +
			"workload does. Regenerate with `make bench-json`.",
	}
	interrupted := false
	for _, sc := range suite {
		if *only != "" && !strings.Contains(sc.name, *only) {
			continue
		}
		// Scenarios are independent measurements, so an interrupt between
		// them still leaves a coherent (if shorter) file.
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		if sc.bench != nil {
			row, err := measureLayer(sc, *benchtime)
			if err != nil {
				return err
			}
			file.Benchmarks = append(file.Benchmarks, row)
			fmt.Printf("%-30s %s %12.1f ns/op %6d allocs/op %10d B/op %12.0f events/s\n",
				sc.name, sc.fastLabel, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp, row.EventsPerSec)
			continue
		}
		fastLabel, refLabel := sc.fastLabel, sc.refLabel
		if fastLabel == "" {
			fastLabel = "fast"
		}
		if refLabel == "" {
			refLabel = "reference"
		}
		if sc.check != nil {
			if err := sc.check(); err != nil {
				return fmt.Errorf("%s: %w", sc.name, err)
			}
		}
		fast, err := measureOp(sc.name, fastLabel, sc.events, sc.runFast)
		if err != nil {
			return err
		}
		ref, err := measureOp(sc.name, refLabel, sc.events, sc.runRef)
		if err != nil {
			return err
		}
		file.Benchmarks = append(file.Benchmarks, fast, ref)
		fmt.Printf("%-30s %s %12.0f ns/op %6d allocs/op %10d B/op %12.0f events/s | %s %12.0f ns/op | speedup %.2fx\n",
			sc.name, fastLabel, fast.NsPerOp, fast.AllocsPerOp, fast.BytesPerOp, fast.EventsPerSec, refLabel, ref.NsPerOp, ref.NsPerOp/fast.NsPerOp)
	}
	if len(file.Benchmarks) == 0 {
		if interrupted {
			return fmt.Errorf("interrupted before any scenario finished: %w", ctx.Err())
		}
		return fmt.Errorf("no scenario matches -only %q", *only)
	}
	if interrupted {
		file.Note += " PARTIAL RUN: interrupted before all scenarios completed."
	}

	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	if interrupted {
		fmt.Printf("wrote %s (%d benchmarks, partial — interrupted)\n", *out, len(file.Benchmarks))
		return fmt.Errorf("interrupted: %w", ctx.Err())
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(file.Benchmarks))
	return nil
}
