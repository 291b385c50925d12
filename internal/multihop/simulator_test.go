package multihop

import (
	"reflect"
	"testing"

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

// SetCW must behave exactly like building a fresh simulator with the new
// profile — the quasi-optimality sweep depends on this.
func TestSimulatorSetCW(t *testing.T) {
	nw := randomNetwork(t, 20, 300, 31)
	cfg := simCfg(phy.RTSCTS, uniformCW(64, 20), 1e6, 1)
	sim, err := NewSimulator(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{32, 116, 64} {
		profile := uniformCW(w, 20)
		if err := sim.SetCW(profile); err != nil {
			t.Fatal(err)
		}
		sim.Reset(7)
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		ref := cfg
		ref.CW = profile
		ref.Seed = 7
		want, err := Simulate(nw, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("w=%d: SetCW simulator diverged from fresh Simulate", w)
		}
	}
	if err := sim.SetCW(uniformCW(32, 19)); err == nil {
		t.Fatal("SetCW accepted a wrong-length profile")
	}
	if err := sim.SetCW(uniformCW(0, 20)); err == nil {
		t.Fatal("SetCW accepted a zero window")
	}
}

// Reconfigure must behave exactly like building a fresh simulator with
// the new config on the same network — the engine pool swaps whole
// configs (duration, timing, CW, seed) through it at a fixed topology.
func TestDifferentialSimulatorReconfigure(t *testing.T) {
	nw := randomNetwork(t, 30, 300, 37)
	sim, err := NewSimulator(nw, simCfg(phy.RTSCTS, uniformCW(64, 30), 1e6, 1))
	if err != nil {
		t.Fatal(err)
	}
	configs := []SimConfig{
		simCfg(phy.RTSCTS, uniformCW(32, 30), 5e5, 2),
		simCfg(phy.Basic, uniformCW(116, 30), 1e6, 3),
		simCfg(phy.RTSCTS, []int{8, 64, 16, 128, 32, 8, 64, 16, 128, 32, 8, 64, 16, 128, 32, 8, 64, 16, 128, 32, 8, 64, 16, 128, 32, 8, 64, 16, 128, 32}, 2e5, 4),
	}
	for ci, cfg := range configs {
		if err := sim.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d: reconfigured simulator diverged from fresh Simulate", ci)
		}
	}
	bad := simCfg(phy.RTSCTS, uniformCW(32, 30), 1e6, 5)
	bad.MobilityEvery = 1e5
	if err := sim.Reconfigure(bad); err == nil {
		t.Fatal("Reconfigure accepted a mobile config")
	}
	if err := sim.Reconfigure(simCfg(phy.RTSCTS, uniformCW(32, 29), 1e6, 6)); err == nil {
		t.Fatal("Reconfigure accepted a wrong-length profile")
	}
}

// Reconfigure at a fixed shape is the pooled-engine hot path: zero
// allocations, even when the duration changes between configs.
func TestSimulatorReconfigureAllocationFree(t *testing.T) {
	nw := randomNetwork(t, 50, 180, 11)
	cfgA := simCfg(phy.RTSCTS, uniformCW(116, 50), 5e5, 1)
	cfgB := simCfg(phy.RTSCTS, uniformCW(58, 50), 8e5, 2)
	sim, err := NewSimulator(nw, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	flip := false
	if allocs := testing.AllocsPerRun(5, func() {
		cfg := cfgA
		if flip {
			cfg = cfgB
		}
		flip = !flip
		if err := sim.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Reconfigure+Run allocated %.1f objects per run, want 0", allocs)
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

// The acceptance criterion: post-construction, Reset+Run — and SetCW with
// a same-length profile — performs zero allocations. This pins the fix for
// the fast-engine allocation regression (Simulate paid 12 allocs / 277 KB
// per call for buffers and the adjacency snapshot).
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
	profiles := [][]int{uniformCW(58, 50), uniformCW(116, 50)}
	flip := 0
	if allocs := testing.AllocsPerRun(5, func() {
		flip = 1 - flip
		if err := sim.SetCW(profiles[flip]); err != nil {
			t.Fatal(err)
		}
		seed++
		sim.Reset(seed)
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("SetCW+Reset+Run allocated %.1f objects per run, want 0", allocs)
	}
}

// A Simulator whose profile crosses maxRingSpan must take the reference
// route and come back: SetCW and Reconfigure into a span past the ring
// and back again each equal SimulateReference with the same observer
// stream, and once back in range Reset+Run is allocation-free again.
func TestSimulatorCrossesReferenceRoute(t *testing.T) {
	nw := randomNetwork(t, 20, 300, 31)
	const n = 20
	small, huge := uniformCW(64, n), uniformCW(3000, n)
	cfg := simCfg(phy.RTSCTS, small, 5e5, 1)
	obs := &recordingObserver{}
	cfg.Observer = obs
	sim, err := NewSimulator(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, cw []int, seed uint64) {
		t.Helper()
		obs.events = nil
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		gotEvents := obs.events
		obs.events = nil
		ref := cfg
		ref.CW, ref.Seed = cw, seed
		want, err := SimulateReference(nw, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: simulator diverged from SimulateReference", step)
		}
		if !reflect.DeepEqual(gotEvents, obs.events) {
			t.Fatalf("%s: observer streams diverge: %d events, reference %d", step, len(gotEvents), len(obs.events))
		}
	}

	for _, cw := range [][]int{small, huge, small} {
		if err := sim.SetCW(cw); err != nil {
			t.Fatal(err)
		}
		if wantRef := cw[0] == 3000; (sim.st.span > maxRingSpan) != wantRef {
			t.Fatalf("SetCW(%d): span %d, reference route %v", cw[0], sim.st.span, wantRef)
		}
		sim.Reset(9)
		check("SetCW", cw, 9)
	}
	for _, cw := range [][]int{huge, small} {
		next := cfg
		next.CW, next.Seed = cw, 11
		if err := sim.Reconfigure(next); err != nil {
			t.Fatal(err)
		}
		check("Reconfigure", cw, 11)
	}

	quiet := cfg // the recording observer allocates by design
	quiet.Observer = nil
	if err := sim.Reconfigure(quiet); err != nil {
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
		t.Fatalf("Reset+Run back on the ring allocated %.1f objects per run, want 0", allocs)
	}
}
