package core

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"selfishmac/internal/phy"
	"selfishmac/internal/rng"
)

func TestTFTFirstStage(t *testing.T) {
	s := TFT{Initial: 128}
	if w := s.ChooseCW(0, nil, nil); w != 128 {
		t.Fatalf("first stage CW = %d, want 128", w)
	}
}

func TestTFTMatchesMinimum(t *testing.T) {
	s := TFT{Initial: 128}
	obs := [][]int{{100, 80, 120}, {90, 200, 64}}
	if w := s.ChooseCW(0, obs, nil); w != 64 {
		t.Fatalf("TFT CW = %d, want min of last stage (64)", w)
	}
}

func TestTFTConvergesToMinimum(t *testing.T) {
	g := mustGame(t, 4, phy.Basic)
	strategies := []Strategy{
		TFT{Initial: 300}, TFT{Initial: 150}, TFT{Initial: 97}, TFT{Initial: 220},
	}
	e, err := NewEngine(g, strategies)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0: heterogeneous initials; stage 1 on: everyone at min = 97.
	if got := tr.Stages[0].Profile; got[0] != 300 || got[2] != 97 {
		t.Fatalf("stage 0 profile = %v", got)
	}
	for k := 1; k < len(tr.Stages); k++ {
		for i, w := range tr.Stages[k].Profile {
			if w != 97 {
				t.Fatalf("stage %d player %d CW = %d, want 97", k, i, w)
			}
		}
	}
	if tr.ConvergedAt != 1 || tr.ConvergedCW != 97 {
		t.Fatalf("ConvergedAt=%d CW=%d, want 1, 97", tr.ConvergedAt, tr.ConvergedCW)
	}
}

func TestTFTFairnessAfterConvergence(t *testing.T) {
	g := mustGame(t, 3, phy.Basic)
	e, err := NewEngine(g, []Strategy{TFT{Initial: 50}, TFT{Initial: 500}, TFT{Initial: 200}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Stages[len(tr.Stages)-1]
	for i := 1; i < len(last.UtilityRates); i++ {
		if math.Abs(last.UtilityRates[i]-last.UtilityRates[0]) > 1e-15 {
			t.Fatalf("post-convergence utilities unequal: %v", last.UtilityRates)
		}
	}
}

func TestGTFTKeepsCWWithinTolerance(t *testing.T) {
	// A deviation above beta*own must not trigger a reaction.
	s := GTFT{Initial: 100, R0: 2, Beta: 0.9}
	obs := [][]int{{100, 95}, {100, 95}} // 95 >= 0.9*100: tolerated
	if w := s.ChooseCW(0, obs, nil); w != 100 {
		t.Fatalf("GTFT reacted within tolerance: CW = %d, want 100", w)
	}
}

func TestGTFTReactsBeyondTolerance(t *testing.T) {
	s := GTFT{Initial: 100, R0: 2, Beta: 0.9}
	obs := [][]int{{100, 80}, {100, 80}} // mean 80 < 0.9*100: react
	if w := s.ChooseCW(0, obs, nil); w != 80 {
		t.Fatalf("GTFT CW = %d, want 80", w)
	}
}

func TestGTFTAveragesOverWindow(t *testing.T) {
	// One noisy dip must be absorbed by a long window.
	s := GTFT{Initial: 100, R0: 4, Beta: 0.9}
	obs := [][]int{{100, 100}, {100, 100}, {100, 100}, {100, 70}}
	// mean of player 1 = (100+100+100+70)/4 = 92.5 >= 90: tolerated.
	if w := s.ChooseCW(0, obs, nil); w != 100 {
		t.Fatalf("GTFT overreacted to a single dip: CW = %d, want 100", w)
	}
	// The same dip with window 1 triggers a reaction.
	s1 := GTFT{Initial: 100, R0: 1, Beta: 0.9}
	if w := s1.ChooseCW(0, obs, nil); w != 70 {
		t.Fatalf("window-1 GTFT CW = %d, want 70", w)
	}
}

func TestGTFTToleratesObservationNoiseWhereTFTDoesNot(t *testing.T) {
	g := mustGame(t, 3, phy.Basic)
	noise := func(r *rng.Source, w int) int {
		// ±15% multiplicative measurement error.
		return int(float64(w) * r.UniformRange(0.85, 1.15))
	}
	runFinal := func(strats []Strategy) int {
		e, err := NewEngine(g, strats, WithNoise(noise), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		final := tr.FinalProfile()
		minW := final[0]
		for _, w := range final {
			if w < minW {
				minW = w
			}
		}
		return minW
	}
	tftFinal := runFinal([]Strategy{TFT{Initial: 300}, TFT{Initial: 300}, TFT{Initial: 300}})
	gtftFinal := runFinal([]Strategy{
		GTFT{Initial: 300, R0: 5, Beta: 0.8},
		GTFT{Initial: 300, R0: 5, Beta: 0.8},
		GTFT{Initial: 300, R0: 5, Beta: 0.8},
	})
	// Plain TFT ratchets down: each stage it matches the *minimum* of
	// noisy observations, a strictly downward drift. GTFT must hold near
	// the initial CW.
	if tftFinal >= 270 {
		t.Errorf("TFT under noise ended at %d; expected severe downward ratchet", tftFinal)
	}
	if gtftFinal < 270 {
		t.Errorf("GTFT under noise ended at %d; expected to hold near 300", gtftFinal)
	}
}

func TestConstantStrategy(t *testing.T) {
	c := Constant{W: 42}
	if w := c.ChooseCW(0, [][]int{{1, 2}}, nil); w != 42 {
		t.Fatalf("Constant CW = %d, want 42", w)
	}
	if !strings.Contains(c.Name(), "42") {
		t.Fatalf("name %q missing CW", c.Name())
	}
	m := Constant{W: 2, Label: "malicious"}
	if !strings.Contains(m.Name(), "malicious") {
		t.Fatalf("label lost: %q", m.Name())
	}
}

func TestMaliciousDragsNetworkDown(t *testing.T) {
	g := mustGame(t, 4, phy.Basic)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	strats := []Strategy{
		Constant{W: 8, Label: "malicious"},
		TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar},
	}
	e, err := NewEngine(g, strats)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConvergedCW != 8 {
		t.Fatalf("network converged to %d, want the malicious CW 8", tr.ConvergedCW)
	}
	// Global payoff after collapse strictly below the NE. (Backoff
	// doubling softens the damage of moderate attacks — severity is
	// exercised separately in the m=0 paralysis test.)
	uNE := float64(4) * ne.UStar
	last := tr.Stages[len(tr.Stages)-1]
	var uCollapsed float64
	for _, u := range last.UtilityRates {
		uCollapsed += u
	}
	if uCollapsed >= uNE {
		t.Errorf("collapsed global %g not below NE global %g", uCollapsed, uNE)
	}
}

func TestBestResponseAgainstConstants(t *testing.T) {
	g := mustGame(t, 5, phy.Basic)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	br := &BestResponse{Game: g, Initial: ne.WStar}
	strats := []Strategy{br,
		Constant{W: ne.WStar}, Constant{W: ne.WStar}, Constant{W: ne.WStar}, Constant{W: ne.WStar}}
	e, err := NewEngine(g, strats)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 4(2): the myopic best response to peers pinned at Wc* is to
	// undercut (never to raise).
	wBR := tr.Stages[1].Profile[0]
	if wBR >= ne.WStar {
		t.Errorf("best response %d does not undercut Wc* = %d", wBR, ne.WStar)
	}
	// And the deviator's stage payoff must exceed the uniform payoff.
	if tr.Stages[1].UtilityRates[0] <= ne.UStar {
		t.Errorf("undercutting payoff %g not above uniform %g", tr.Stages[1].UtilityRates[0], ne.UStar)
	}
}

func TestEngineValidation(t *testing.T) {
	g := mustGame(t, 2, phy.Basic)
	if _, err := NewEngine(nil, nil); err == nil {
		t.Error("nil game accepted")
	}
	if _, err := NewEngine(g, []Strategy{TFT{Initial: 1}}); err == nil {
		t.Error("strategy-count mismatch accepted")
	}
	if _, err := NewEngine(g, []Strategy{TFT{Initial: 1}, nil}); err == nil {
		t.Error("nil strategy accepted")
	}
	e, err := NewEngine(g, []Strategy{TFT{Initial: 1}, TFT{Initial: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0); err == nil {
		t.Error("Run(0) accepted")
	}
}

func TestEngineClampsStrategyOutput(t *testing.T) {
	g := mustGame(t, 2, phy.Basic)
	e, err := NewEngine(g, []Strategy{Constant{W: -5}, Constant{W: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.Stages[0].Profile
	if p[0] != 1 || p[1] != g.Config().WMax {
		t.Fatalf("profile = %v, want clamped to [1, WMax]", p)
	}
}

func TestStopOnConvergence(t *testing.T) {
	g := mustGame(t, 3, phy.Basic)
	e, err := NewEngine(g,
		[]Strategy{TFT{Initial: 100}, TFT{Initial: 100}, TFT{Initial: 100}},
		WithStopOnConvergence(3))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stages) != 3 {
		t.Fatalf("ran %d stages, want early stop at 3", len(tr.Stages))
	}
	if tr.ConvergedAt != 0 || tr.ConvergedCW != 100 {
		t.Fatalf("ConvergedAt=%d CW=%d, want 0, 100", tr.ConvergedAt, tr.ConvergedCW)
	}
}

// discountedUtility returns player i's total discounted utility over the
// trace: Σ_k δ^k · u_i(k) · T.
func discountedUtility(tr *Trace, i int, discount, stageDuration float64) float64 {
	var total float64
	pow := 1.0
	for _, st := range tr.Stages {
		total += pow * st.UtilityRates[i] * stageDuration
		pow *= discount
	}
	return total
}

func TestTraceDiscountedUtility(t *testing.T) {
	tr := &Trace{Stages: []StageRecord{
		{UtilityRates: []float64{2}},
		{UtilityRates: []float64{3}},
	}}
	// δ=0.5, T=10: 2*10 + 0.5*3*10 = 35.
	if got := discountedUtility(tr, 0, 0.5, 10); math.Abs(got-35) > 1e-12 {
		t.Fatalf("discounted utility = %g, want 35", got)
	}
}

func TestTraceFinalProfileEmpty(t *testing.T) {
	tr := &Trace{}
	if tr.FinalProfile() != nil {
		t.Fatal("empty trace should have nil final profile")
	}
}

func TestNoConvergenceWithOscillation(t *testing.T) {
	// Two constants at different CWs never converge to a uniform profile.
	g := mustGame(t, 2, phy.Basic)
	e, err := NewEngine(g, []Strategy{Constant{W: 10}, Constant{W: 20}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConvergedAt != -1 || tr.ConvergedCW != 0 {
		t.Fatalf("ConvergedAt=%d CW=%d, want -1, 0", tr.ConvergedAt, tr.ConvergedCW)
	}
}

func TestStrategyNames(t *testing.T) {
	g := mustGame(t, 2, phy.Basic)
	for _, s := range []Strategy{
		TFT{Initial: 7},
		GTFT{Initial: 7, R0: 3, Beta: 0.9},
		Constant{W: 7},
		&BestResponse{Game: g, Initial: 7},
	} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}

func TestEngineNoiseDeterministicBySeed(t *testing.T) {
	g := mustGame(t, 3, phy.Basic)
	noise := func(r *rng.Source, w int) int {
		return int(float64(w) * r.UniformRange(0.9, 1.1))
	}
	run := func(seed uint64) []int {
		e, err := NewEngine(g,
			[]Strategy{TFT{Initial: 200}, TFT{Initial: 200}, TFT{Initial: 200}},
			WithNoise(noise), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run(20)
		if err != nil {
			t.Fatal(err)
		}
		return tr.FinalProfile()
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := run(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

// The noisy single-hop trace is pinned against a hand-written loop that
// spells out the engine's choices: ChooseCW gets the player index, the
// chosen CW is clamped to [1, WMax], and after each Bianchi solve the
// noise is drawn for player 0's view of players 1..n-1, then player 1's
// view of the others, and so on, each reading clamped to [1, WMax].
func TestEngineNoisyTraceMatchesHandLoop(t *testing.T) {
	const n, stages, seed = 4, 8, 5
	g := mustGame(t, n, phy.Basic)
	wMax := g.Config().WMax
	noise := func(r *rng.Source, w int) int { return int(float64(w) * r.UniformRange(0.7, 1.3)) }
	strategies := []Strategy{
		TFT{Initial: 40},
		GTFT{Initial: 60, R0: 2, Beta: 0.9},
		TFT{Initial: 80},
		Constant{W: 50},
	}
	eng, err := NewEngine(g, strategies, WithNoise(noise), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(stages)
	if err != nil {
		t.Fatal(err)
	}

	src := rng.New(seed)
	observed := make([][][]int, n)
	utilities := make([][]float64, n)
	for k := 0; k < stages; k++ {
		profile := make([]int, n)
		for i, s := range strategies {
			profile[i] = min(max(s.ChooseCW(i, observed[i], utilities[i]), 1), wMax)
		}
		sol, err := g.Model().Solve(profile)
		if err != nil {
			t.Fatal(err)
		}
		rates := g.UtilityRates(sol)
		want := StageRecord{Profile: profile, UtilityRates: rates, Throughput: sol.Throughput}
		if !reflect.DeepEqual(got.Stages[k], want) {
			t.Fatalf("stage %d: engine %+v, hand loop %+v", k, got.Stages[k], want)
		}
		for i := range strategies {
			obs := slices.Clone(profile)
			for j := range obs {
				if j != i {
					obs[j] = min(max(noise(src, profile[j]), 1), wMax)
				}
			}
			observed[i] = append(observed[i], obs)
			utilities[i] = append(utilities[i], rates[i])
		}
	}
}
