package core

import (
	"math"
	"testing"

	"selfishmac/internal/phy"
	"selfishmac/internal/rng"
)

func TestGrimTriggerCooperatesUntilDeviation(t *testing.T) {
	s := GrimTrigger{Initial: 100, PunishCW: 2}
	if w := s.ChooseCW(0, nil, nil); w != 100 {
		t.Fatalf("first stage = %d, want 100", w)
	}
	clean := [][]int{{100, 100}, {100, 100}}
	if w := s.ChooseCW(0, clean, nil); w != 100 {
		t.Fatalf("clean history triggered punishment: %d", w)
	}
}

func TestGrimTriggerPunishesForever(t *testing.T) {
	s := GrimTrigger{Initial: 100, PunishCW: 2}
	// Deviation in the distant past still triggers.
	history := [][]int{{100, 40}, {100, 100}, {100, 100}}
	if w := s.ChooseCW(0, history, nil); w != 2 {
		t.Fatalf("past deviation not punished: %d", w)
	}
}

func TestGrimTriggerIgnoresOwnCW(t *testing.T) {
	s := GrimTrigger{Initial: 100, PunishCW: 2}
	// Own punishment CW must not re-trigger itself (self column ignored).
	history := [][]int{{2, 100}}
	if w := s.ChooseCW(0, history, nil); w != 100 {
		t.Fatalf("own low CW triggered punishment: %d", w)
	}
}

func TestGrimTriggerTolerance(t *testing.T) {
	s := GrimTrigger{Initial: 100, PunishCW: 2, Tolerance: 0.8}
	within := [][]int{{100, 85}}
	if w := s.ChooseCW(0, within, nil); w != 100 {
		t.Fatalf("within-tolerance observation punished: %d", w)
	}
	beyond := [][]int{{100, 75}}
	if w := s.ChooseCW(0, beyond, nil); w != 2 {
		t.Fatalf("beyond-tolerance observation not punished: %d", w)
	}
}

func TestGrimTriggerDefaults(t *testing.T) {
	s := GrimTrigger{Initial: 50}
	// PunishCW < 1 clamps to 1; zero tolerance means exact match.
	bad := [][]int{{50, 49}}
	if w := s.ChooseCW(0, bad, nil); w != 1 {
		t.Fatalf("default punish = %d, want 1", w)
	}
	if s.Name() == "" {
		t.Fatal("empty name")
	}
}

// Grim never recovers from an observation glitch; GTFT does. This is the
// central robustness contrast between the two enforcement strategies.
func TestGrimVersusGTFTUnderOneGlitch(t *testing.T) {
	g := mustGame(t, 3, phy.Basic)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	// A noise model that corrupts exactly one mid-run observation (after
	// GTFT's averaging window has history to absorb it — a glitch in the
	// very first stage is indistinguishable from a real defection).
	glitchOnce := func() ObservationNoise {
		calls := 0
		return func(r *rng.Source, w int) int {
			calls++
			if calls == 9 { // one corrupted reading in stage ~4
				return w / 2
			}
			return w
		}
	}
	run := func(strats []Strategy) []int {
		e, err := NewEngine(g, strats, WithNoise(glitchOnce()), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		return tr.FinalProfile()
	}
	grim := run([]Strategy{
		GrimTrigger{Initial: ne.WStar, PunishCW: 2, Tolerance: 0.9},
		GrimTrigger{Initial: ne.WStar, PunishCW: 2, Tolerance: 0.9},
		GrimTrigger{Initial: ne.WStar, PunishCW: 2, Tolerance: 0.9},
	})
	gtft := run([]Strategy{
		GTFT{Initial: ne.WStar, R0: 4, Beta: 0.7},
		GTFT{Initial: ne.WStar, R0: 4, Beta: 0.7},
		GTFT{Initial: ne.WStar, R0: 4, Beta: 0.7},
	})
	if grim[0] != 2 {
		t.Errorf("grim after glitch = %v, expected permanent punishment at 2", grim)
	}
	for _, w := range gtft {
		if w < ne.WStar*8/10 {
			t.Errorf("GTFT after one glitch collapsed: %v", gtft)
		}
	}
}

// The Deviant strategy must realize exactly the Section V.D scenario, so
// the analytic payoff formula and a real engine trace must agree.
func TestDeviantMatchesAnalyticShortSighted(t *testing.T) {
	g := mustGame(t, 5, phy.Basic)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	const lag = 3
	ws := ne.WStar / 3
	strats := []Strategy{
		Deviant{Deviation: ws, Base: ws, Stages: lag},
		TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar},
	}
	// TFT reacts after 1 stage, so with plain TFT the lag is 1; to model
	// lag>1 use GTFT with window=lag... here simply verify the analytic
	// lag-1 formula against the trace.
	strats[0] = Deviant{Deviation: ws, Base: ws, Stages: 1}
	e, err := NewEngine(g, strats)
	if err != nil {
		t.Fatal(err)
	}
	const stages = 400
	tr, err := e.Run(stages)
	if err != nil {
		t.Fatal(err)
	}
	delta := 0.98 // strong discount so the truncated horizon converges
	T := g.Config().StageDuration
	got := discountedUtility(tr, 0, delta, T)

	dev, err := g.Deviation(ws, ne.WStar)
	if err != nil {
		t.Fatal(err)
	}
	post, err := g.UniformUtilityRate(ws)
	if err != nil {
		t.Fatal(err)
	}
	want := dev.UDev*T + (delta/(1-delta))*post*T*(1-math.Pow(delta, stages-1))
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Fatalf("engine-realized deviant payoff %g != analytic %g", got, want)
	}
}

func TestDeviantSwitchesBack(t *testing.T) {
	d := Deviant{Deviation: 5, Base: 50, Stages: 2}
	if w := d.ChooseCW(0, nil, nil); w != 5 {
		t.Fatalf("stage 0 = %d", w)
	}
	if w := d.ChooseCW(0, [][]int{{5}}, nil); w != 5 {
		t.Fatalf("stage 1 = %d", w)
	}
	if w := d.ChooseCW(0, [][]int{{5}, {5}}, nil); w != 50 {
		t.Fatalf("stage 2 = %d, want base", w)
	}
	if d.Name() == "" {
		t.Fatal("empty name")
	}
}
