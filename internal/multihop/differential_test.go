package multihop

import (
	"fmt"
	"reflect"
	"testing"

	"selfishmac/internal/backoff"
	"selfishmac/internal/core"
	"selfishmac/internal/phy"
	"selfishmac/internal/rng"
	"selfishmac/internal/topology"
)

// differential_test.go pins the determinism contract of the event-skipping
// spatial engine: Simulate (fastsim.go) must produce byte-identical
// SimResults to SimulateReference (the original slot-by-slot loop) —
// same counters, hidden-collision attribution, payoffs — across static,
// mobile and churn-masked topologies, because both consume the simulator
// PRNG in the same order and step mobility at the same slots.

// diffCase is one (topology factory, sim config) pair. Topologies are
// built fresh per engine run because mobile networks are mutated.
type diffCase struct {
	name string
	topo func(t *testing.T) Topology
	cfg  SimConfig
}

func simCfg(mode phy.AccessMode, cw []int, dur float64, seed uint64) SimConfig {
	return SimConfig{
		Run: backoff.Run{
			Timing:   phy.Default().MustTiming(mode),
			MaxStage: phy.Default().MaxBackoffStage,
			CW:       cw,
			Duration: dur,
			Seed:     seed,
			Gain:     1,
			Cost:     1e-4,
		},
	}
}

func randomNetwork(t *testing.T, n int, rangeM float64, seed uint64) *topology.Network {
	return randomNetworkSized(t, n, 1000, 1000, rangeM, seed)
}

func randomNetworkSized(t *testing.T, n int, w, h, rangeM float64, seed uint64) *topology.Network {
	t.Helper()
	nw, err := topology.New(topology.Config{
		N: n, Width: w, Height: h, Range: rangeM,
		MinSpeed: 0, MaxSpeed: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	line := func(*testing.T) Topology {
		return &fixedGraph{adj: [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}}
	}
	star := func(*testing.T) Topology {
		return &fixedGraph{adj: [][]int{{1, 2, 3, 4, 5}, {0}, {0}, {0}, {0}, {0}}}
	}
	pairPlusIsolated := func(*testing.T) Topology {
		// Node 2 is isolated: it exercises the redraw-without-transmit
		// path on every one of its fire slots.
		return &fixedGraph{adj: [][]int{{1}, {0}, nil}}
	}
	hiddenTriple := func(*testing.T) Topology {
		// Classic hidden-terminal line: 0 and 2 cannot hear each other
		// but both reach 1.
		return &fixedGraph{adj: [][]int{{1}, {0, 2}, {1}}}
	}
	sparse50 := func(t *testing.T) Topology { return randomNetwork(t, 50, 180, 11) }
	dense20 := func(t *testing.T) Topology { return randomNetwork(t, 20, 400, 12) }
	mobile50 := func(t *testing.T) Topology { return randomNetwork(t, 50, 250, 13) }
	mobile100 := func(t *testing.T) Topology { return randomNetwork(t, 100, 250, 14) }
	churnMasked := func(active []bool, seed uint64) func(*testing.T) Topology {
		return func(t *testing.T) Topology {
			return &maskedTopology{base: randomNetwork(t, len(active), 300, seed), active: active}
		}
	}
	mask20 := make([]bool, 20)
	for i := range mask20 {
		mask20[i] = i%3 != 0 // a third of the nodes departed
	}
	mask8 := []bool{true, false, true, true, false, false, true, true}

	// Large-n factories keep the paper's density (100 nodes / 1000m²
	// at Range 250) by growing the area with sqrt(n/100), so the grid
	// has many cells and real pruning work to do.
	sparse500 := func(t *testing.T) Topology { return randomNetworkSized(t, 500, 2236, 2236, 250, 24) }
	mobile500 := func(t *testing.T) Topology { return randomNetworkSized(t, 500, 2236, 2236, 250, 25) }
	mobile1000 := func(t *testing.T) Topology { return randomNetworkSized(t, 1000, 3162, 3162, 250, 26) }
	// Range wider than either dimension collapses the grid to one cell;
	// the merge path must still match the linear scan exactly.
	bigRange := func(t *testing.T) Topology { return randomNetworkSized(t, 12, 1000, 600, 1500, 27) }
	mask300 := make([]bool, 300)
	for i := range mask300 {
		mask300[i] = i%4 != 1 // a quarter departed
	}
	churnMasked300 := func(t *testing.T) Topology {
		return &maskedTopology{base: randomNetworkSized(t, 300, 1732, 1732, 250, 28), active: mask300}
	}
	// Population scale, same density: the fire-slot calendar's target
	// regime. Sampled durations keep the reference loop (O(n) per slot)
	// to a couple of seconds per case.
	sparse5000 := func(t *testing.T) Topology { return randomNetworkSized(t, 5000, 7071, 7071, 250, 33) }
	mobile5000 := func(t *testing.T) Topology { return randomNetworkSized(t, 5000, 7071, 7071, 250, 34) }
	grid10000 := func(t *testing.T) Topology { return randomNetworkSized(t, 10000, 10000, 10000, 250, 35) }

	mob := func(cfg SimConfig, every float64) SimConfig {
		cfg.MobilityEvery = every
		return cfg
	}
	het := simCfg(phy.RTSCTS, []int{16, 200, 48, 48, 999}, 4e6, 7)

	// One-slot holds: with Ts or Tc a single slot, a carrier hold ends at
	// t+1 and freezes no counting slot, yet still deafens its neighbors
	// for the rest of slot t. A dense static clique at CW 2 makes
	// neighbors transmit in the same slot.
	holds := func(cfg SimConfig, ts, tc int) SimConfig {
		cfg.Timing.Ts = float64(ts) * cfg.Timing.Slot
		cfg.Timing.Tc = float64(tc) * cfg.Timing.Slot
		return cfg
	}
	mobile60 := func(t *testing.T) Topology { return randomNetwork(t, 60, 250, 37) }
	clique := func(*testing.T) Topology { return cliqueGraph(8) }
	var oneSlot []diffCase
	for _, h := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {1, 3}} {
		for seed := uint64(1); seed <= 5; seed++ {
			cfg := holds(mob(simCfg(phy.Basic, backoff.Uniform(4, 60), 1e6, seed), 2e4), h[0], h[1])
			oneSlot = append(oneSlot, diffCase{fmt.Sprintf("one-slot-holds-ts%d-tc%d-seed%d", h[0], h[1], seed), mobile60, cfg})
		}
	}

	return append(oneSlot, []diffCase{
		{"line5-uniform", line, simCfg(phy.RTSCTS, backoff.Uniform(32, 5), 4e6, 1)},
		{"line5-heterogeneous", line, simCfg(phy.RTSCTS, []int{8, 64, 16, 128, 32}, 4e6, 2)},
		{"star6-basic", star, simCfg(phy.Basic, backoff.Uniform(64, 6), 4e6, 3)},
		{"pair-plus-isolated", pairPlusIsolated, simCfg(phy.RTSCTS, backoff.Uniform(16, 3), 2e6, 4)},
		{"hidden-triple", hiddenTriple, simCfg(phy.RTSCTS, backoff.Uniform(32, 3), 4e6, 5)},
		{"hidden-triple-aggressive", hiddenTriple, simCfg(phy.RTSCTS, []int{2, 8, 2}, 2e6, 6)},
		{"heterogeneous-cw", line, het},
		{"sparse50-static", sparse50, simCfg(phy.RTSCTS, backoff.Uniform(116, 50), 2e6, 8)},
		{"dense20-static", dense20, simCfg(phy.RTSCTS, backoff.Uniform(48, 20), 2e6, 9)},
		{"mobile50", mobile50, mob(simCfg(phy.RTSCTS, backoff.Uniform(64, 50), 2e6, 10), 1e5)},
		{"mobile100-paper", mobile100, mob(simCfg(phy.RTSCTS, backoff.Uniform(26, 100), 1e6, 11), 5e4)},
		{"mobile50-fast-mobility", mobile50, mob(simCfg(phy.RTSCTS, backoff.Uniform(32, 50), 5e5, 12), 1e3)},
		{"churn-masked-20", churnMasked(mask20, 15), simCfg(phy.RTSCTS, backoff.Uniform(40, 20), 2e6, 13)},
		{"churn-masked-8", churnMasked(mask8, 16), simCfg(phy.Basic, []int{16, 32, 8, 64, 16, 128, 24, 48}, 2e6, 14)},
		{"degenerate-w1", hiddenTriple, simCfg(phy.RTSCTS, backoff.Uniform(1, 3), 1e6, 17)},
		{"short-run", line, simCfg(phy.RTSCTS, backoff.Uniform(64, 5), 200, 18)},
		// Grid-index paths at scale: large-n networks route every
		// adjacency snapshot (static, mobile re-snapshots, churn filters)
		// through the cell grid; the reference loop pins the trajectory.
		{"sparse500-static", sparse500, simCfg(phy.RTSCTS, backoff.Uniform(64, 500), 5e5, 24)},
		{"mobile500", mobile500, mob(simCfg(phy.RTSCTS, backoff.Uniform(32, 500), 2e5, 25), 5e4)},
		{"mobile1000-grid", mobile1000, mob(simCfg(phy.RTSCTS, backoff.Uniform(26, 1000), 1e5, 26), 2e4)},
		{"range-exceeds-area", bigRange, simCfg(phy.RTSCTS, backoff.Uniform(48, 12), 1e6, 27)},
		{"churn-masked-300", churnMasked300, simCfg(phy.RTSCTS, backoff.Uniform(64, 300), 2e5, 28)},
		// The calendar at scale: thousands of concurrent calendar entries,
		// constant lazy-shift repair under carrier-sense churn, mobility
		// steps at n=5000, and the n=10000 static grid path.
		{"sparse5000-static", sparse5000, simCfg(phy.RTSCTS, backoff.Uniform(26, 5000), 1e5, 33)},
		{"mobile5000", mobile5000, mob(simCfg(phy.RTSCTS, backoff.Uniform(26, 5000), 5e4, 34), 2e4)},
		{"grid10000-static", grid10000, simCfg(phy.RTSCTS, backoff.Uniform(26, 10000), 5e4, 35)},
		// CW << MaxStage past the ring's bucket cap: the capped ring wraps.
		{"huge-cw-capped-ring", line, simCfg(phy.RTSCTS, backoff.Uniform(3000, 5), 4e6, 36)},
		{"clique8-cw2", clique, simCfg(phy.Basic, backoff.Uniform(2, 8), 2e6, 38)},
		{"clique8-cw2-one-slot-holds", clique, holds(simCfg(phy.Basic, backoff.Uniform(2, 8), 2e6, 39), 1, 2)},
	}...)
}

// TestDifferentialDeltaVsRebuildPath pins the adjacency view at scale:
// Simulate, which steps mobility through the view, must be bit-identical
// to SimulateReference, which rebuilds the adjacency from scratch after
// every step — same results, same post-run network state — on mobile
// networks at n=1000 and n=5000. Continuous random waypoint moves every
// node each step (the view's bulk refill); the paused case, warmed up to
// its steady state, moves a minority (the view's patch). The mobility is
// much churnier than the matrix's mobile cases.
func TestDifferentialDeltaVsRebuildPath(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		dim   float64
		seed  uint64
		cfg   SimConfig
		every float64
		pause float64 // random-waypoint pause; > 0 warms the network up first
	}{
		{"mobile1000-delta", 1000, 3162, 41, simCfg(phy.RTSCTS, backoff.Uniform(26, 1000), 5e5, 41), 2e4, 0},
		{"mobile1000-fast-mobility", 1000, 3162, 42, simCfg(phy.RTSCTS, backoff.Uniform(64, 1000), 2e5, 42), 2e3, 0},
		{"mobile5000-delta", 5000, 7071, 43, simCfg(phy.RTSCTS, backoff.Uniform(26, 5000), 2e5, 43), 2e4, 0},
		{"paused1000-patch", 1000, 3162, 44, simCfg(phy.RTSCTS, backoff.Uniform(26, 1000), 5e5, 44), 2e4, 600},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MobilityEvery = tc.every
			net := func() *topology.Network {
				if tc.pause == 0 {
					return randomNetworkSized(t, tc.n, tc.dim, tc.dim, 250, tc.seed)
				}
				nw, err := topology.New(topology.Config{
					N: tc.n, Width: tc.dim, Height: tc.dim, Range: 250,
					MinSpeed: 5, MaxSpeed: 20, Pause: tc.pause, Seed: tc.seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 200; i++ {
					if err := nw.Step(20); err != nil {
						t.Fatal(err)
					}
				}
				return nw
			}
			deltaNet, plainNet := net(), net()
			want, err := SimulateReference(plainNet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(deltaNet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("view path diverged from the rebuilding reference")
			}
			if !reflect.DeepEqual(deltaNet.BruteForceAdjacencyLists(), plainNet.BruteForceAdjacencyLists()) {
				t.Fatal("post-run networks diverged: the view path stepped mobility differently")
			}
		})
	}
}

func TestDifferentialSimulateMatchesReference(t *testing.T) {
	for _, tc := range diffCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			// Fresh topologies per engine: mobile networks are mutated.
			want, err := SimulateReference(tc.topo(t), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(tc.topo(t), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast engine diverged from reference:\nfast: %+v\nref:  %+v", got, want)
			}
		})
	}
}

// A mobile run must leave the *network itself* in an identical state under
// both engines (same number of mobility steps, same waypoint stream), or
// downstream stages of a repeated game would diverge.
func TestDifferentialMobilityNetworkState(t *testing.T) {
	cfg := simCfg(phy.RTSCTS, backoff.Uniform(48, 30), 2e6, 19)
	cfg.MobilityEvery = 7e4
	ref := randomNetwork(t, 30, 250, 20)
	if _, err := SimulateReference(ref, cfg); err != nil {
		t.Fatal(err)
	}
	fast := randomNetwork(t, 30, 250, 20)
	if _, err := Simulate(fast, cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast.BruteForceAdjacencyLists(), ref.BruteForceAdjacencyLists()) {
		t.Fatal("post-run adjacency diverged: mobility stepping differs between engines")
	}
}

// Seed sweep over the hidden-terminal fixture: freeze/resume bookkeeping
// bugs need particular overlap patterns to surface.
func TestDifferentialSimulateSeedSweep(t *testing.T) {
	grid := &fixedGraph{adj: [][]int{
		{1, 3}, {0, 2, 4}, {1, 5},
		{0, 4}, {1, 3, 5}, {2, 4},
	}}
	for seed := uint64(0); seed < 20; seed++ {
		cfg := simCfg(phy.RTSCTS, []int{16, 32, 16, 64, 8, 32}, 1e6, seed)
		want, err := SimulateReference(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Simulate(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: fast engine diverged from reference", seed)
		}
	}
}

// The engine stage loop (repeated game) must be unaffected: run a short
// churn-enabled engine trace against one driven by the reference
// simulator stage-for-stage. (The engine always calls Simulate; here we
// re-derive each stage's result with SimulateReference and compare the
// recorded rates.)
func TestDifferentialEngineStagesWithChurn(t *testing.T) {
	nw := randomNetwork(t, 12, 350, 21)
	sim := simCfg(phy.RTSCTS, nil, 5e5, 22)
	strat := make([]int, 12)
	for i := range strat {
		strat[i] = 16 + 8*i
	}
	strategies := make([]core.Strategy, len(strat))
	for i, w := range strat {
		strategies[i] = core.Constant{W: w}
	}
	eng, err := NewEngine(nw, strategies, sim)
	if err != nil {
		t.Fatal(err)
	}
	eng.WithChurn(ChurnConfig{Seed: 23, LeaveProb: 0.25, JoinProb: 0.5, MinActive: 3})
	trace, err := eng.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	churn := newChurnState(ChurnConfig{Seed: 23, LeaveProb: 0.25, JoinProb: 0.5, MinActive: 3}, 12)
	for k, stage := range trace.Stages {
		churn.step()
		if !reflect.DeepEqual(stage.Active, churn.active) {
			t.Fatalf("stage %d: churn mask diverged", k)
		}
		scfg := sim
		scfg.CW = stage.Profile
		scfg.Seed = rng.DeriveSeed(sim.Seed, "multihop.engine.stage", k)
		res, err := SimulateReference(&maskedTopology{base: nw, active: stage.Active}, scfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range stage.UtilityRates {
			if stage.UtilityRates[i] != res.Nodes[i].PayoffRate {
				t.Fatalf("stage %d node %d: engine rate %g != reference %g",
					k, i, stage.UtilityRates[i], res.Nodes[i].PayoffRate)
			}
		}
	}
}

// TestDifferentialLocalCWProfile pins each node's local-game CW to the
// degree the brute-force scan counts: CWFor(deg+1) on the fresh paper
// network, after a plain Step (the view must resync) and after the
// view's own StepDelta.
func TestDifferentialLocalCWProfile(t *testing.T) {
	sel, err := NewLocalCWSelector(core.DefaultConfig(2, phy.RTSCTS))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.New(topology.PaperConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		profile, err := LocalCWProfile(nw, sel)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range nw.BruteForceAdjacencyLists() {
			want, err := sel.CWFor(len(row) + 1)
			if err != nil {
				t.Fatal(err)
			}
			if profile[i] != want {
				t.Fatalf("after %s: node %d CW %d, want CWFor(%d) = %d", when, i, profile[i], len(row)+1, want)
			}
		}
	}
	check("New")
	if err := nw.Step(300); err != nil {
		t.Fatal(err)
	}
	check("Step")
	if _, err := nw.AdjacencyView().StepDelta(60); err != nil {
		t.Fatal(err)
	}
	check("StepDelta")
}

func TestDifferentialCaseCount(t *testing.T) {
	// The acceptance criterion asks for a matrix of >= 20 configs across
	// the two simulators; keep the combined count honest.
	const macsimConfigs = 21 // see internal/macsim/differential_test.go
	if got := len(diffCases(t)) + macsimConfigs; got < 20 {
		t.Fatalf("differential matrix shrank to %d configs, need >= 20", got)
	}
}
