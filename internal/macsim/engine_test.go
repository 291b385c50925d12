package macsim

import (
	"reflect"
	"testing"

	"selfishmac/internal/phy"
)

// cloneResult snapshots an engine-owned Result for comparison across runs.
func cloneResult(r *Result) *Result {
	out := *r
	out.Nodes = append([]NodeStats(nil), r.Nodes...)
	return &out
}

// TestDifferentialEngineMatchesRun pins the reusable lifecycle against the
// one-shot entry point: for every differential config and a sweep of
// seeds, Reset(seed)+Run on one engine must equal a fresh Run.
func TestDifferentialEngineMatchesRun(t *testing.T) {
	for ci, cfg := range diffConfigs(t) {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("cfg%02d: %v", ci, err)
		}
		for seed := uint64(0); seed < 4; seed++ {
			ref := cfg
			ref.Seed = seed
			want, err := Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			eng.Reset(seed)
			got := eng.Run()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg%02d seed %d: engine diverged from Run:\nengine: %+v\nrun:    %+v",
					ci, seed, got, want)
			}
		}
	}
}

// TestDifferentialFreshEnginePerStage drives a stage sequence of changing
// windows, seeds, durations and node counts — the closed-loop usage,
// which builds one engine per stage — including a window far past the
// calendar's bucket cap, comparing every stage's fresh engine to
// RunReference and to Run.
func TestDifferentialFreshEnginePerStage(t *testing.T) {
	basic := phy.Default().MustTiming(phy.Basic)
	mk := func(cw []int, dur float64, seed uint64) Config {
		return Config{Timing: basic, MaxStage: 6, CW: cw, Duration: dur, Seed: seed, Gain: 1, Cost: 0.01}
	}
	stages := []Config{
		mk(uniform(128, 6), 1e6, 1),
		mk([]int{128, 64, 128, 128, 32, 128}, 1e6, 2),
		mk(uniform(16, 6), 5e5, 3),
		mk(uniform(336, 6), 1e6, 4),
		mk(uniform(64, 9), 1e6, 5), // node count change
		{Timing: basic, MaxStage: 16, CW: uniform(1<<20, 2), Duration: 1e5,
			Seed: 6, Gain: 1, Cost: 0.01}, // past the bucket cap: a wrapping ring
		mk(uniform(48, 9), 1e6, 7),
	}
	for si, cfg := range stages {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("stage %d: %v", si, err)
		}
		got := cloneResult(eng.Run())
		want, err := RunReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stage %d: fresh engine diverged from RunReference", si)
		}
		if run, err := Run(cfg); err != nil || !reflect.DeepEqual(got, run) {
			t.Fatalf("stage %d: fresh engine diverged from Run (err %v)", si, err)
		}
	}
}

// The engine must not retain the caller's slices: mutating the config
// after NewEngine cannot change results.
func TestEngineCopiesConfig(t *testing.T) {
	cw := []int{32, 64, 96}
	cfg := Config{Timing: phy.Default().MustTiming(phy.Basic), MaxStage: 6,
		CW: cw, Duration: 1e6, Seed: 3, Gain: 1, Cost: 0.01}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Reset(3)
	want := cloneResult(eng.Run())
	cw[0] = 1 // caller clobbers its slice
	eng.Reset(3)
	if got := eng.Run(); !reflect.DeepEqual(got, want) {
		t.Fatal("engine result changed when the caller mutated its CW slice")
	}
}

// The acceptance criterion: post-construction, Reset+Run performs zero
// allocations — also when two engines at different windows over the
// same node count alternate, as stage loops holding one engine per
// profile do — and each alternating run equals a fresh Run.
func TestEngineSteadyStateAllocationFree(t *testing.T) {
	cfg := Config{
		Timing:   phy.Default().MustTiming(phy.Basic),
		MaxStage: 6,
		CW:       uniform(336, 20),
		Duration: 1e6,
		Seed:     1,
		Gain:     1,
		Cost:     0.01,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	if allocs := testing.AllocsPerRun(5, func() {
		seed++
		eng.Reset(seed)
		eng.Run()
	}); allocs != 0 {
		t.Fatalf("Reset+Run allocated %.1f objects per run, want 0", allocs)
	}
	alt := cfg
	alt.CW = uniform(128, 20)
	cfgs := [2]Config{cfg, alt}
	var engs [2]*Engine
	for i, c := range cfgs {
		if engs[i], err = NewEngine(c); err != nil {
			t.Fatal(err)
		}
	}
	flip := 0
	if allocs := testing.AllocsPerRun(5, func() {
		flip = 1 - flip
		engs[flip].Reset(cfgs[flip].Seed)
		engs[flip].Run()
	}); allocs != 0 {
		t.Fatalf("alternating same-shape Reset+Run allocated %.1f objects per run, want 0", allocs)
	}
	for i, c := range cfgs {
		want, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		engs[i].Reset(c.Seed)
		if got := engs[i].Run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("engine %d diverged from a fresh Run", i)
		}
	}
}
