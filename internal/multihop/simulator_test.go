package multihop

import (
	"math"
	"reflect"
	"testing"

	"selfishmac/internal/calendar"
	"selfishmac/internal/phy"
)

// cloneSimResult snapshots a simulator-owned result for comparison.
func cloneSimResult(r *SimResult) *SimResult {
	out := *r
	out.Nodes = append([]NodeStats(nil), r.Nodes...)
	return &out
}

// TestDifferentialSimulatorMatchesSimulate pins the reusable lifecycle
// against the one-shot entry point: for every static differential config
// and a sweep of seeds, Reset(seed)+Run on one simulator must equal a
// fresh Simulate.
func TestDifferentialSimulatorMatchesSimulate(t *testing.T) {
	for _, tc := range diffCases(t) {
		if tc.cfg.MobilityEvery > 0 {
			continue // mobility is one-shot only
		}
		t.Run(tc.name, func(t *testing.T) {
			sim, err := NewSimulator(tc.topo(t), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := tc.cfg.Seed; seed < tc.cfg.Seed+4; seed++ {
				ref := tc.cfg
				ref.Seed = seed
				want, err := Simulate(tc.topo(t), ref)
				if err != nil {
					t.Fatal(err)
				}
				sim.Reset(seed)
				got, err := sim.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: simulator diverged from Simulate:\nsim:      %+v\nsimulate: %+v",
						seed, got, want)
				}
			}
		})
	}
}

// A CW change is a new Simulator over the same network — the
// quasi-optimality sweep builds one per candidate window — and each must
// equal a fresh Simulate; NewSimulator rejects a wrong-length or zero
// profile.
func TestSimulatorPerWindowMatchesSimulate(t *testing.T) {
	nw := randomNetwork(t, 20, 300, 31)
	cfg := simCfg(phy.RTSCTS, uniformCW(64, 20), 1e6, 1)
	for _, w := range []int{32, 116, 64} {
		ref := cfg
		ref.CW = uniformCW(w, 20)
		sim, err := NewSimulator(nw, ref)
		if err != nil {
			t.Fatal(err)
		}
		sim.Reset(7)
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		ref.Seed = 7
		want, err := Simulate(nw, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("w=%d: simulator diverged from fresh Simulate", w)
		}
	}
	for name, cw := range map[string][]int{"wrong-length": uniformCW(32, 19), "zero-window": uniformCW(0, 20)} {
		bad := cfg
		bad.CW = cw
		if _, err := NewSimulator(nw, bad); err == nil {
			t.Fatalf("NewSimulator accepted a %s profile", name)
		}
	}
}

// Simulators built over one network for different whole configs —
// duration, timing, CW profile and seed — must each equal a fresh
// Simulate, however their runs interleave: a network shared by several
// simulators (one per replication worker) carries no state between them.
func TestDifferentialSimulatorsShareNetwork(t *testing.T) {
	nw := randomNetwork(t, 30, 300, 37)
	configs := []SimConfig{
		simCfg(phy.RTSCTS, uniformCW(32, 30), 5e5, 2),
		simCfg(phy.Basic, uniformCW(116, 30), 1e6, 3),
		simCfg(phy.RTSCTS, []int{8, 64, 16, 128, 32, 8, 64, 16, 128, 32, 8, 64, 16, 128, 32, 8, 64, 16, 128, 32, 8, 64, 16, 128, 32, 8, 64, 16, 128, 32}, 2e5, 4),
	}
	sims := make([]*Simulator, len(configs))
	for ci, cfg := range configs {
		sim, err := NewSimulator(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sims[ci] = sim
	}
	for _, ci := range []int{0, 1, 2, 1, 0, 2} {
		sims[ci].Reset(configs[ci].Seed)
		got, err := sims[ci].Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(nw, configs[ci])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d: simulator diverged from fresh Simulate", ci)
		}
	}
}

// Simulators at different configs over one shared network stay on the
// zero-allocation path when their Reset+Run pairs alternate, even when
// the stage durations differ.
func TestSimulatorsShareNetworkAllocationFree(t *testing.T) {
	nw := randomNetwork(t, 50, 180, 11)
	var sims [2]*Simulator
	for i, cfg := range []SimConfig{
		simCfg(phy.RTSCTS, uniformCW(116, 50), 5e5, 1),
		simCfg(phy.RTSCTS, uniformCW(58, 50), 8e5, 2),
	} {
		sim, err := NewSimulator(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = sim
	}
	flip, seed := 0, uint64(0)
	if allocs := testing.AllocsPerRun(5, func() {
		flip = 1 - flip
		seed++
		sims[flip].Reset(seed)
		if _, err := sims[flip].Run(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("alternating Reset+Run allocated %.1f objects per run, want 0", allocs)
	}
}

// The simulator must not retain the caller's CW slice.
func TestSimulatorCopiesConfig(t *testing.T) {
	nw := &fixedGraph{adj: [][]int{{1}, {0, 2}, {1}}}
	cw := []int{16, 32, 16}
	sim, err := NewSimulator(nw, simCfg(phy.RTSCTS, cw, 1e6, 3))
	if err != nil {
		t.Fatal(err)
	}
	sim.Reset(3)
	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := cloneSimResult(r)
	cw[0] = 1 // caller clobbers its slice
	sim.Reset(3)
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("simulator result changed when the caller mutated its CW slice")
	}
}

// Mobility must be rejected at construction, not discovered mid-run.
func TestSimulatorRejectsMobility(t *testing.T) {
	nw := randomNetwork(t, 10, 300, 5)
	cfg := simCfg(phy.RTSCTS, uniformCW(32, 10), 1e6, 1)
	cfg.MobilityEvery = 1e5
	if _, err := NewSimulator(nw, cfg); err == nil {
		t.Fatal("NewSimulator accepted a mobile config")
	}
}

// The acceptance criterion: post-construction, Reset+Run performs zero
// allocations. This pins the fix for the fast-engine allocation
// regression (Simulate paid 12 allocs / 277 KB per call for buffers and
// the adjacency snapshot).
func TestSimulatorSteadyStateAllocationFree(t *testing.T) {
	nw := randomNetwork(t, 50, 180, 11)
	cfg := simCfg(phy.RTSCTS, uniformCW(116, 50), 5e5, 1)
	sim, err := NewSimulator(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	if allocs := testing.AllocsPerRun(5, func() {
		seed++
		sim.Reset(seed)
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Reset+Run allocated %.1f objects per run, want 0", allocs)
	}
}

// TestFireCalendarSelection pins the engine's calendar route: every
// fire-slot horizon runs on the ring — sized to the horizon, or capped
// and wrapping past MaxBuckets, including windows whose cw << MaxStage
// would overflow — and every Reset+Run equals SimulateReference with the
// same observer stream, and allocates nothing.
func TestFireCalendarSelection(t *testing.T) {
	pair := &fixedGraph{adj: [][]int{{1}, {0}}}
	nw := randomNetwork(t, 20, 300, 31)
	// MaxStage 6: the ring holds cw << 6 plus one frame time.
	for _, tc := range []struct {
		topo    Topology
		cw      []int
		buckets int
	}{
		{pair, []int{16, 16}, 2048},
		{pair, []int{calendar.MaxBuckets>>6 - 64, 16}, calendar.MaxBuckets},
		{pair, []int{calendar.MaxBuckets>>6 + 1, 16}, calendar.MaxBuckets},
		{pair, []int{1 << 40, 16}, calendar.MaxBuckets},
		{pair, []int{math.MaxInt, 16}, calendar.MaxBuckets},
		{nw, uniformCW(64, 20), 8192},
		{nw, uniformCW(3000, 20), calendar.MaxBuckets},
	} {
		cfg := simCfg(phy.RTSCTS, tc.cw, 5e5, 1)
		obs := &recordingObserver{}
		cfg.Observer = obs
		sim, err := NewSimulator(tc.topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.st.cal.Buckets(); got != tc.buckets {
			t.Errorf("CW %d: ring has %d buckets, want %d", tc.cw[0], got, tc.buckets)
		}
		for _, seed := range []uint64{9, 11} {
			obs.events = nil
			sim.Reset(seed)
			got, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			gotEvents := obs.events
			obs.events = nil
			ref := cfg
			ref.Seed = seed
			want, err := SimulateReference(tc.topo, ref)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("CW %d seed %d: simulator diverged from SimulateReference", tc.cw[0], seed)
			}
			if !reflect.DeepEqual(gotEvents, obs.events) {
				t.Fatalf("CW %d seed %d: observer streams diverge: %d events, reference %d",
					tc.cw[0], seed, len(gotEvents), len(obs.events))
			}
		}

		// The recording observer allocates by design, so the allocation
		// pin runs unobserved.
		sim, err = NewSimulator(tc.topo, simCfg(phy.RTSCTS, tc.cw, 5e5, 1))
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(20)
		if allocs := testing.AllocsPerRun(5, func() {
			seed++
			sim.Reset(seed)
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("CW %d: Reset+Run on the ring allocated %.1f objects per run, want 0", tc.cw[0], allocs)
		}
	}
}
