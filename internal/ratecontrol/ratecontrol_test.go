package ratecontrol

import (
	"math"
	"testing"

	"selfishmac/internal/num"
	"selfishmac/internal/phy"
)

func mustGame(t testing.TB, n, w int, mode phy.AccessMode) *Game {
	t.Helper()
	g, err := NewGame(DefaultConfig(n, w, mode))
	if err != nil {
		t.Fatalf("NewGame: %v", err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(10, 336, phy.Basic)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"one player", func(c *Config) { c.N = 1 }},
		{"zero W", func(c *Config) { c.W = 0 }},
		{"bad mode", func(c *Config) { c.Mode = 0 }},
		{"zero gain", func(c *Config) { c.GainPerBit = 0 }},
		{"negative cost", func(c *Config) { c.CostPerAttempt = -1 }},
		{"ber 1", func(c *Config) { c.BER = 1 }},
		{"inverted bounds", func(c *Config) { c.LMin = 100; c.LMax = 50 }},
		{"bad phy", func(c *Config) { c.PHY.BitRate = 0 }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig(10, 336, phy.Basic)
			tc.mut(&c)
			if err := c.Validate(); err == nil {
				t.Fatalf("accepted %s", tc.name)
			}
			if _, err := NewGame(c); err == nil {
				t.Fatalf("NewGame accepted %s", tc.name)
			}
		})
	}
}

func TestUniformUtilityInteriorOptimum(t *testing.T) {
	g := mustGame(t, 10, 336, phy.Basic)
	lSoc, uSoc, err := g.SocialOptimum()
	if err != nil {
		t.Fatal(err)
	}
	cfg := g.Config()
	if lSoc <= cfg.LMin+1 || lSoc >= cfg.LMax-1 {
		t.Fatalf("social optimum %g is not interior in [%g, %g]", lSoc, cfg.LMin, cfg.LMax)
	}
	if uSoc <= 0 {
		t.Fatalf("social utility %g not positive", uSoc)
	}
	// Verify it really is a maximum.
	if g.UniformUtility(lSoc*0.7) >= uSoc || g.UniformUtility(lSoc*1.4) >= uSoc {
		t.Errorf("utility at 0.7x/1.4x not below the optimum")
	}
}

func TestBERDrivesOptimumDown(t *testing.T) {
	mk := func(ber float64) float64 {
		cfg := DefaultConfig(10, 336, phy.Basic)
		cfg.BER = ber
		g, err := NewGame(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := g.SocialOptimum()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if l4, l3 := mk(1e-4), mk(1e-3); l3 >= l4 {
		t.Errorf("higher BER should shorten optimal packets: BER=1e-3 gives %g >= 1e-4's %g", l3, l4)
	}
}

// The commons tragedy under basic access: the selfish NE payload strictly
// exceeds the social optimum and costs the network utility.
func TestTragedyOfCommonsBasic(t *testing.T) {
	g := mustGame(t, 10, 336, phy.Basic)
	out, err := g.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if out.Escalation <= 1.02 {
		t.Errorf("NE payload %g barely above social %g (escalation %.3f)", out.LNE, out.LSocial, out.Escalation)
	}
	if out.PriceOfAnarchy <= 1 {
		t.Errorf("price of anarchy %.4f, want > 1", out.PriceOfAnarchy)
	}
	if out.UNE >= out.USocial {
		t.Errorf("NE utility %g not below social %g", out.UNE, out.USocial)
	}
}

// The externality in this game is successful-airtime hogging, not
// collision cost, so — unlike the CW game — basic and RTS/CTS access
// suffer a *similar* tragedy. Both must show a real price of anarchy, and
// the two must agree within 10%.
func TestTragedyIsModeIndependent(t *testing.T) {
	basic, err := mustGame(t, 10, 336, phy.Basic).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	rts, err := mustGame(t, 10, 47, phy.RTSCTS).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]Outcome{"basic": basic, "rts/cts": rts} {
		if out.PriceOfAnarchy < 1.2 {
			t.Errorf("%s: price of anarchy %.4f, want a real tragedy (> 1.2)", name, out.PriceOfAnarchy)
		}
		if out.Escalation < 1.5 {
			t.Errorf("%s: escalation %.3f, want > 1.5", name, out.Escalation)
		}
	}
	if r := rts.PriceOfAnarchy / basic.PriceOfAnarchy; r < 0.9 || r > 1.1 {
		t.Errorf("PoA ratio rts/basic = %.3f, expected near 1 (airtime-driven externality)", r)
	}
}

func TestBestResponseEscalatesAgainstSocial(t *testing.T) {
	g := mustGame(t, 10, 336, phy.Basic)
	lSoc, _, err := g.SocialOptimum()
	if err != nil {
		t.Fatal(err)
	}
	br, err := g.BestResponse(lSoc)
	if err != nil {
		t.Fatal(err)
	}
	if br <= lSoc {
		t.Fatalf("best response %g does not escalate above social %g", br, lSoc)
	}
	// And the deviator gains by it.
	if g.DeviatorUtility(br, lSoc) <= g.UniformUtility(lSoc) {
		t.Error("escalating deviator does not gain")
	}
}

func TestSymmetricNEIsFixedPoint(t *testing.T) {
	g := mustGame(t, 10, 336, phy.Basic)
	lNE, _, err := g.SymmetricNE()
	if err != nil {
		t.Fatal(err)
	}
	br, err := g.BestResponse(lNE)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(br-lNE) > 0.02*lNE {
		t.Fatalf("BR(L_NE=%g) = %g, not a fixed point", lNE, br)
	}
}

func TestTFTSustainsSocialOptimum(t *testing.T) {
	g := mustGame(t, 10, 336, phy.Basic)
	uTFT, err := g.TFTOutcome()
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if uTFT <= out.UNE {
		t.Errorf("TFT-sustained utility %g not above one-shot NE %g", uTFT, out.UNE)
	}
	if math.Abs(uTFT-out.USocial) > 1e-15 {
		t.Errorf("TFT outcome %g != social optimum %g", uTFT, out.USocial)
	}
}

func TestMoreNodesLowerUtility(t *testing.T) {
	u := func(n, w int) float64 {
		g := mustGame(t, n, w, phy.Basic)
		_, uSoc, err := g.SocialOptimum()
		if err != nil {
			t.Fatal(err)
		}
		return uSoc
	}
	// Per-node utility shrinks roughly like 1/n at matched (near-NE) CWs.
	if u5, u20 := u(5, 78), u(20, 335); u20 >= u5 {
		t.Errorf("per-node utility did not shrink with population: %g >= %g", u20, u5)
	}
}

func TestTslotConsistency(t *testing.T) {
	g := mustGame(t, 10, 336, phy.Basic)
	// Uniform tslot must be a convex combination bounded by sigma and
	// the longest hold.
	L := 8184.0
	ts := g.tslot(L, L)
	if hold, _ := g.HoldTimes(L); ts < g.cfg.PHY.SlotTime || ts > hold {
		t.Fatalf("tslot = %g outside [sigma, Ts]", ts)
	}
	// Deviating longer must strictly increase the mean slot duration.
	if g.tslot(2*L, L) <= ts {
		t.Fatalf("longer deviator payload did not stretch tslot")
	}
	// And the deviator's payload must matter less than everyone's.
	if g.tslot(2*L, L) >= g.tslot(2*L, 2*L) {
		t.Fatalf("single deviator stretched tslot more than the whole field")
	}
	// Under RTS/CTS only the RTS frames collide: the collision hold
	// ignores the payload.
	gr := mustGame(t, 10, 47, phy.RTSCTS)
	_, short := gr.HoldTimes(256)
	_, long := gr.HoldTimes(32768)
	if short != long {
		t.Fatalf("RTS/CTS collision hold depends on payload: %g vs %g", short, long)
	}
}

func TestUtilityConcaveNearOptimum(t *testing.T) {
	g := mustGame(t, 10, 336, phy.Basic)
	lSoc, _, err := g.SocialOptimum()
	if err != nil {
		t.Fatal(err)
	}
	if d2 := num.SecondDerivative(g.UniformUtility, lSoc); d2 > 0 {
		t.Fatalf("uniform utility convex at its optimum (d2 = %g)", d2)
	}
}
