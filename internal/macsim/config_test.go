package macsim

import (
	"math"
	"testing"

	"selfishmac/internal/backoff"
	"selfishmac/internal/phy"
)

// Direct coverage for Config.tcOf and the heterogeneous PerNodeTs payoff
// path, which were previously exercised only indirectly through the
// rate-control experiments.

func TestTcOfSelectsLongestCollidingFrame(t *testing.T) {
	tm := phy.Default().MustTiming(phy.Basic)
	cfg := Config{Run: backoff.Run{Timing: tm, CW: []int{16, 16, 16, 16}}}

	// nil PerNodeTc: always the shared Timing.Tc, whoever collides.
	for _, set := range [][]int{{0, 1}, {1, 2, 3}, {0}} {
		if got := cfg.tcOf(set); got != tm.Tc {
			t.Errorf("tcOf(%v) with nil PerNodeTc = %g, want Timing.Tc %g", set, got, tm.Tc)
		}
	}

	cfg.PerNodeTc = []float64{100, 900, 250, 400}
	cases := []struct {
		set  []int
		want float64
	}{
		{[]int{0, 1}, 900},    // max of {100, 900}
		{[]int{0, 2}, 250},    // max of {100, 250}
		{[]int{2, 3}, 400},    // order-independent max
		{[]int{3, 2}, 400},    // reversed set, same hold
		{[]int{0, 2, 3}, 400}, // three-way collision
		{[]int{1}, 900},       // single entry: its own contribution
	}
	for _, c := range cases {
		if got := cfg.tcOf(c.set); got != c.want {
			t.Errorf("tcOf(%v) = %g, want %g (longest colliding frame)", c.set, got, c.want)
		}
	}
}

func TestTsOfPerNodeOverride(t *testing.T) {
	tm := phy.Default().MustTiming(phy.Basic)
	cfg := Config{Run: backoff.Run{Timing: tm, CW: []int{16, 16}}}
	if got := cfg.tsOf(1); got != tm.Ts {
		t.Fatalf("tsOf with nil PerNodeTs = %g, want Timing.Ts %g", got, tm.Ts)
	}
	cfg.PerNodeTs = []float64{123, 456}
	if got := cfg.tsOf(0); got != 123 {
		t.Fatalf("tsOf(0) = %g, want 123", got)
	}
	if got := cfg.tsOf(1); got != 456 {
		t.Fatalf("tsOf(1) = %g, want 456", got)
	}
}

// The heterogeneous PerNodeTs payoff path: with per-node success holds,
// elapsed time must decompose as idle + per-node success holds + collision
// holds, and every payoff rate must follow from the counters over that
// stretched clock.
func TestHeterogeneousPerNodeTsPayoffPath(t *testing.T) {
	tm := phy.Default().MustTiming(phy.Basic)
	cfg := Config{
		Run: backoff.Run{
			Timing:   tm,
			MaxStage: 6,
			CW:       []int{32, 64, 128},
			Duration: 20e6,
			Seed:     33,
			Gain:     2,
			Cost:     0.05,
		},
		PerNodeTs: []float64{tm.Ts, 2 * tm.Ts, 0.5 * tm.Ts},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Time decomposition with per-node success holds (collisions still
	// share Timing.Tc since PerNodeTc is nil).
	want := float64(res.IdleSlots) * tm.Slot
	for i, st := range res.Nodes {
		want += float64(st.Successes) * cfg.PerNodeTs[i]
	}
	want += float64(res.CollisionEvents) * tm.Tc
	if math.Abs(res.Time-want) > 1e-6*want {
		t.Fatalf("time %g != per-node decomposition %g", res.Time, want)
	}
	// Payoffs and throughputs follow the measured counters over the
	// stretched clock.
	for i, st := range res.Nodes {
		wantRate := (float64(st.Successes)*cfg.Gain - float64(st.Attempts)*cfg.Cost) / res.Time
		if math.Abs(st.PayoffRate-wantRate) > 1e-15 {
			t.Errorf("node %d payoff rate %g != definition %g", i, st.PayoffRate, wantRate)
		}
		wantTput := float64(st.Successes) * tm.Payload / res.Time
		if math.Abs(st.Throughput-wantTput) > 1e-15 {
			t.Errorf("node %d throughput %g != definition %g", i, st.Throughput, wantTput)
		}
		if st.Successes == 0 {
			t.Errorf("node %d never succeeded in 20 s", i)
		}
	}
	// The long-frame node (node 1) stretches everyone's clock: rerunning
	// with uniform Ts must yield a strictly higher success rate per
	// second for the same seed.
	uni := cfg
	uni.PerNodeTs = nil
	base, err := Run(uni)
	if err != nil {
		t.Fatal(err)
	}
	if rateHet, rateUni := float64(res.SuccessEvents)/res.Time, float64(base.SuccessEvents)/base.Time; rateHet >= rateUni {
		t.Errorf("long frames did not slow the success rate: %g >= %g", rateHet, rateUni)
	}
}
