package macsim

import (
	"fmt"
	"reflect"
	"testing"

	"selfishmac/internal/calendar"
	"selfishmac/internal/phy"
)

// differential_test.go pins the determinism contract of the event-skipping
// engine: Run (the Engine on the calendar ring, engine.go) must produce a byte-identical
// Result — every counter, payoff and slot decomposition, bit for bit — to
// RunReference (the original min-scan loop) for every configuration,
// because both consume the PRNG stream in the same order.

// diffConfigs builds the equivalence matrix: uniform and heterogeneous
// CW profiles, both access modes, per-node Ts/Tc overrides, degenerate
// windows, varied stage caps, seeds and durations.
func diffConfigs(t testing.TB) []Config {
	t.Helper()
	basic := phy.Default().MustTiming(phy.Basic)
	rtscts := phy.Default().MustTiming(phy.RTSCTS)
	mk := func(tm phy.Timing, maxStage int, cw []int, dur float64, seed uint64) Config {
		return Config{
			Timing: tm, MaxStage: maxStage, CW: cw,
			Duration: dur, Seed: seed, Gain: 1, Cost: 0.01,
		}
	}
	cfgs := []Config{
		// Uniform profiles across populations, both modes.
		mk(basic, 6, uniform(32, 2), 2e6, 1),
		mk(basic, 6, uniform(76, 5), 2e6, 2),
		mk(basic, 6, uniform(336, 20), 2e6, 3),
		mk(basic, 6, uniform(879, 50), 2e6, 4),
		mk(rtscts, 6, uniform(22, 5), 2e6, 5),
		mk(rtscts, 6, uniform(116, 50), 2e6, 6),
		// Heterogeneous CW (the mean-field-breaking case).
		mk(basic, 6, []int{32, 64, 128, 256, 512}, 2e6, 7),
		mk(basic, 6, []int{1, 1000}, 1e6, 8),
		mk(rtscts, 6, []int{16, 16, 333, 501, 7, 90}, 2e6, 9),
		// Degenerate windows and stage caps.
		mk(basic, 0, uniform(1, 2), 5e5, 10), // pure collision
		mk(basic, 0, uniform(16, 4), 1e6, 11),
		mk(basic, 16, uniform(4, 6), 1e6, 12),
		mk(basic, 3, []int{2, 3, 5, 7}, 1e6, 13),
		// Single node, tiny duration (boundary: one event may overshoot).
		mk(basic, 6, uniform(16, 1), 100, 14),
	}
	// Per-node Ts/Tc overrides, heterogeneous and mixed with CW spread.
	het := mk(basic, 6, []int{64, 64, 64}, 2e6, 15)
	het.PerNodeTs = []float64{basic.Ts, 3 * basic.Ts, 0.5 * basic.Ts}
	cfgs = append(cfgs, het)
	het2 := mk(basic, 6, []int{32, 128, 64, 256}, 2e6, 16)
	het2.PerNodeTc = []float64{basic.Tc, 2 * basic.Tc, 0.25 * basic.Tc, 5 * basic.Tc}
	cfgs = append(cfgs, het2)
	het3 := mk(rtscts, 6, []int{48, 48, 200, 9}, 2e6, 17)
	het3.PerNodeTs = []float64{rtscts.Ts, 2.5 * rtscts.Ts, rtscts.Ts, 4 * rtscts.Ts}
	het3.PerNodeTc = []float64{2 * rtscts.Tc, rtscts.Tc, 3 * rtscts.Tc, rtscts.Tc}
	cfgs = append(cfgs, het3)
	// Gain/cost variations feed the payoff formula.
	gc := mk(basic, 6, uniform(64, 3), 1e6, 18)
	gc.Gain, gc.Cost = 2.5, 0.3
	cfgs = append(cfgs, gc)
	// Calendar-wrap forcers: the calendar is sized to the stage-0
	// horizon, so configurations whose collisions push draws far past it
	// file entries several wraps ahead and exercise the re-file path.
	// Tiny windows at a high stage cap collide constantly (draws up to
	// 2 << 12 against a 64-bucket ring); the wide-spread profile mixes an
	// always-colliding pair with bystanders sharing the ring.
	cfgs = append(cfgs,
		mk(basic, 12, uniform(2, 8), 1e6, 19),
		mk(basic, 10, []int{1, 1, 700, 1200}, 1e6, 20),
		mk(rtscts, 14, []int{3, 3, 3, 64}, 5e5, 21),
	)
	return cfgs
}

func uniform(w, n int) []int {
	cw := make([]int, n)
	for i := range cw {
		cw[i] = w
	}
	return cw
}

func TestDifferentialFastMatchesReference(t *testing.T) {
	for ci, cfg := range diffConfigs(t) {
		t.Run(fmt.Sprintf("cfg%02d", ci), func(t *testing.T) {
			want, err := RunReference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast engine diverged from reference:\nfast: %+v\nref:  %+v", got, want)
			}
		})
	}
}

// A window far past the bucket cap (cw << 16 = 2³⁶ slots) runs on the
// capped ring, filing entries thousands of wraps ahead, and must still
// match the reference.
func TestDifferentialCappedRingHugeWindow(t *testing.T) {
	cfg := Config{
		Timing:   phy.Default().MustTiming(phy.Basic),
		MaxStage: 16,
		CW:       []int{1 << 20, 1 << 20},
		Duration: 1e5,
		Seed:     21,
		Gain:     1,
		Cost:     0.01,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.cal.Buckets(); got != calendar.MaxBuckets {
		t.Fatalf("ring has %d buckets, want the %d cap", got, calendar.MaxBuckets)
	}
	want, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Run(); !reflect.DeepEqual(got, want) {
		t.Fatal("capped ring diverged from reference")
	}
}

// Idle gaps billions of ring wraps long (CW 2⁵⁰ on the 2¹⁷-bucket ring)
// cost one wrap per event, not one scan per wrap: the run finishes at
// once and still matches the reference.
func TestDifferentialHugeIdleGap(t *testing.T) {
	cfg := Config{
		Timing:   phy.Default().MustTiming(phy.Basic),
		MaxStage: 6,
		CW:       []int{1 << 50, 1 << 50},
		Duration: 1e18,
		Seed:     5,
		Gain:     1,
		Cost:     0.01,
	}
	want, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.SuccessEvents+want.CollisionEvents < 20 {
		t.Fatalf("only %d events; the test needs several idle gaps", want.SuccessEvents+want.CollisionEvents)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("huge idle gaps diverged from reference:\nfast: %+v\nref:  %+v", got, want)
	}
}

// Seed sweep over one mid-size heterogeneous config: draw-order bugs that
// need a particular collision pattern to surface show up across seeds.
func TestDifferentialSeedSweep(t *testing.T) {
	base := Config{
		Timing:   phy.Default().MustTiming(phy.Basic),
		MaxStage: 6,
		CW:       []int{16, 32, 48, 64, 96, 128, 256, 333},
		Duration: 1e6,
		Gain:     1,
		Cost:     0.01,
	}
	for seed := uint64(0); seed < 25; seed++ {
		cfg := base
		cfg.Seed = seed
		want, err := RunReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: fast engine diverged from reference", seed)
		}
	}
}

// The acceptance criterion on the hot loop: after setup, a full run of
// the calendar engine performs zero allocations.
func TestFastEngineHotLoopAllocationFree(t *testing.T) {
	e, err := NewEngine(Config{
		Timing:   phy.Default().MustTiming(phy.Basic),
		MaxStage: 6,
		CW:       uniform(336, 20),
		Duration: 1e6,
		Seed:     1,
		Gain:     1,
		Cost:     0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		e.Reset(1)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("hot loop (reset+run) allocated %.1f objects per run, want 0", allocs)
	}
}

// wrapProbe records how far past the current event any node is filed.
type wrapProbe struct {
	e       *Engine
	maxLead int64
}

func (w *wrapProbe) OnEvent(slot int64, _ []int) {
	for _, x := range w.e.expiry {
		w.maxLead = max(w.maxLead, x-slot)
	}
}

// The ring is sized to the stage-0 horizon: tiny windows at a high stage
// cap get the 64-bucket floor, collisions file entries past a full wrap
// of it, the run still matches the reference bit for bit, and reset+run
// pairs allocate nothing.
func TestFloorRingWrapsMatchesReference(t *testing.T) {
	cfg := Config{
		Timing:   phy.Default().MustTiming(phy.Basic),
		MaxStage: 12,
		CW:       uniform(2, 8),
		Duration: 1e6,
		Seed:     19,
		Gain:     1,
		Cost:     0.01,
	}
	probe := &wrapProbe{}
	cfg.Observer = probe
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe.e = e
	if got := e.cal.Buckets(); got != 64 {
		t.Fatalf("calendar has %d buckets, want the 64-bucket floor (stage-0 horizon)", got)
	}
	got := cloneResult(e.Run())
	if probe.maxLead < 64 {
		t.Fatalf("entries filed at most %d slots ahead; the ring never wrapped", probe.maxLead)
	}
	if b := e.cal.Buckets(); b != 64 {
		t.Fatalf("calendar has %d buckets after the run, want 64", b)
	}
	want, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapping calendar diverged from reference:\nfast: %+v\nref:  %+v", got, want)
	}
	probe.e = nil // the allocation pin runs unobserved
	e.cfg.Observer = nil
	allocs := testing.AllocsPerRun(5, func() {
		e.Reset(19)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("wrapping hot loop allocated %.1f objects per run, want 0", allocs)
	}
}

// reset must fully restore the engine: repeated runs are bit-identical.
func TestFastEngineResetReproducible(t *testing.T) {
	e, err := NewEngine(Config{
		Timing:   phy.Default().MustTiming(phy.Basic),
		MaxStage: 6,
		CW:       []int{32, 64, 128},
		Duration: 1e6,
		Seed:     9,
		Gain:     1,
		Cost:     0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := cloneResult(e.Run())
	e.Reset(9)
	if second := e.Run(); !reflect.DeepEqual(first, second) {
		t.Fatal("reset run diverged from first run")
	}
}
