package search

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"selfishmac/internal/core"
	"selfishmac/internal/phy"
)

// funcEnv adapts a pure payoff function to Env (perfect delivery).
type funcEnv struct {
	payoff func(w int) float64
	msgs   []Message
}

func (e *funcEnv) Broadcast(msg Message)               { e.msgs = append(e.msgs, msg) }
func (e *funcEnv) LeaderPayoff(w int) (float64, error) { return e.payoff(w), nil }

func tentEnv(peak int) *funcEnv {
	return &funcEnv{payoff: func(w int) float64 { return -math.Abs(float64(w - peak)) }}
}

func mustGame(t testing.TB, n int, mode phy.AccessMode) *core.Game {
	t.Helper()
	g, err := core.NewGame(core.DefaultConfig(n, mode))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunFindsPeakRightOfStart(t *testing.T) {
	env := tentEnv(40)
	res, err := Run(env, 0, 10, Options{WMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 40 {
		t.Fatalf("found W = %d, want 40", res.W)
	}
	// Probes: start at 10, then 11..40 (30 improving), then 41 overshoots.
	if res.ProbeCount() != 32 {
		t.Fatalf("probes = %d, want 32", res.ProbeCount())
	}
}

func TestRunFindsPeakLeftOfStart(t *testing.T) {
	env := tentEnv(5)
	res, err := Run(env, 0, 20, Options{WMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 5 {
		t.Fatalf("found W = %d, want 5", res.W)
	}
	// Probes: start at 20, 21 overshoots, then 19..5 (15 improving),
	// then 4 overshoots.
	if res.ProbeCount() != 18 {
		t.Fatalf("probes = %d, want 18", res.ProbeCount())
	}
}

func TestRunStartAtPeak(t *testing.T) {
	env := tentEnv(20)
	res, err := Run(env, 0, 20, Options{WMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Probes: start at 20, then 21 and 19, which both fall short.
	if res.W != 20 || res.ProbeCount() != 3 {
		t.Fatalf("W=%d after %d probes, want 20 after 3", res.W, res.ProbeCount())
	}
}

func TestRunMessageSequence(t *testing.T) {
	env := tentEnv(12)
	if _, err := Run(env, 3, 10, Options{WMax: 100}); err != nil {
		t.Fatal(err)
	}
	if env.msgs[0].Type != StartSearch || env.msgs[0].W != 10 || env.msgs[0].From != 3 {
		t.Fatalf("first message = %+v, want start-search W=10 from 3", env.msgs[0])
	}
	last := env.msgs[len(env.msgs)-1]
	if last.Type != Announce || last.W != 12 {
		t.Fatalf("last message = %+v, want announce W=12", last)
	}
	for _, m := range env.msgs[1 : len(env.msgs)-1] {
		if m.Type != Ready {
			t.Fatalf("middle message = %+v, want ready", m)
		}
	}
}

// Every walker accepts a starting CW in [1, WMax] and rejects one
// outside it with ErrInvalidConfig.
func TestRunBoundsValidation(t *testing.T) {
	walkers := map[string]func(Env, int, int, Options) (Result, error){
		"Run": Run, "AcceleratedSearch": AcceleratedSearch, "ResilientRun": ResilientRun,
	}
	for _, tc := range []struct {
		w0   int
		opts Options
		ok   bool
	}{
		{0, Options{}, false},
		{5000, Options{WMax: 100}, false},
		{4097, Options{}, false},
		{1, Options{WMax: 100}, true},
		{100, Options{WMax: 100}, true},
		{4096, Options{}, true},
	} {
		for name, walk := range walkers {
			_, err := walk(tentEnv(5), 0, tc.w0, tc.opts)
			if tc.ok && err != nil {
				t.Errorf("%s: w0=%d with %+v rejected: %v", name, tc.w0, tc.opts, err)
			}
			if !tc.ok && !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s: w0=%d with %+v: err %v, want ErrInvalidConfig", name, tc.w0, tc.opts, err)
			}
		}
	}
}

func TestRunStopsAtWMax(t *testing.T) {
	// Monotone increasing payoff: search must stop at WMax.
	env := &funcEnv{payoff: func(w int) float64 { return float64(w) }}
	res, err := Run(env, 0, 95, Options{WMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 100 {
		t.Fatalf("W = %d, want WMax 100", res.W)
	}
}

func TestRunPropagatesMeasurementError(t *testing.T) {
	env := &errEnv{failAt: 12}
	res, err := Run(env, 0, 10, Options{WMax: 100})
	if err == nil {
		t.Fatal("measurement error swallowed")
	}
	// The probes gathered before the failure (W=10, 11) must survive so
	// callers can see where the walk died.
	if res.ProbeCount() != 2 {
		t.Fatalf("partial result has %d probes, want 2 (W=10, 11)", res.ProbeCount())
	}
	for i, want := range []int{10, 11} {
		if res.Probes[i].W != want {
			t.Errorf("partial probe %d at W=%d, want %d", i, res.Probes[i].W, want)
		}
	}
	if res.Measurements != 3 {
		t.Errorf("measurements = %d, want 3 (two good, one failed)", res.Measurements)
	}
}

func TestAcceleratedPropagatesPartialResult(t *testing.T) {
	// 13 is on the geometric path from 10 (11, 13, 17, ...).
	env := &errEnv{failAt: 13}
	res, err := AcceleratedSearch(env, 0, 10, Options{WMax: 100})
	if err == nil {
		t.Fatal("measurement error swallowed")
	}
	if res.ProbeCount() == 0 {
		t.Fatal("accelerated search discarded partial probes on error")
	}
}

type errEnv struct{ failAt int }

func (e *errEnv) Broadcast(Message) {}
func (e *errEnv) LeaderPayoff(w int) (float64, error) {
	if w == e.failAt {
		return 0, fmt.Errorf("boom at %d", w)
	}
	return float64(w), nil
}

// The protocol against the real analytic game must land on (or next to)
// the exact efficient NE.
func TestRunFindsEfficientNEAnalytic(t *testing.T) {
	g := mustGame(t, 5, phy.RTSCTS)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewAnalyticEnv(g, 0, 4, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, 0, 4, Options{WMax: g.Config().WMax})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != ne.WStar {
		t.Fatalf("protocol found W = %d, exact NE = %d", res.W, ne.WStar)
	}
	// After the announce every node, the leader included, sits at the
	// found CW (§V.C), although the last probe overshot the peak.
	for i, w := range env.Profile() {
		if w != res.W {
			t.Fatalf("node %d at %d after search announced %d", i, w, res.W)
		}
	}
}

func TestRunLeftSearchFromAbove(t *testing.T) {
	g := mustGame(t, 5, phy.RTSCTS)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	start := ne.WStar + 30
	env, err := NewAnalyticEnv(g, 2, start, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, 2, start, Options{WMax: g.Config().WMax})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != ne.WStar {
		t.Fatalf("left search found %d, want %d", res.W, ne.WStar)
	}
}

func TestAcceleratedMatchesExhaustive(t *testing.T) {
	for _, peak := range []int{3, 47, 312, 2000} {
		env := tentEnv(peak)
		res, err := AcceleratedSearch(env, 0, 16, Options{WMax: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if res.W != peak {
			t.Errorf("peak %d: accelerated found %d", peak, res.W)
		}
	}
}

func TestAcceleratedUsesFarFewerProbes(t *testing.T) {
	g := mustGame(t, 20, phy.Basic)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	envSlow, err := NewAnalyticEnv(g, 0, 16, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(envSlow, 0, 16, Options{WMax: g.Config().WMax})
	if err != nil {
		t.Fatal(err)
	}
	envFast, err := NewAnalyticEnv(g, 0, 16, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := AcceleratedSearch(envFast, 0, 16, Options{WMax: g.Config().WMax})
	if err != nil {
		t.Fatal(err)
	}
	if fast.W != ne.WStar && int(math.Abs(float64(fast.W-ne.WStar))) > 2 {
		t.Errorf("accelerated found %d, exact NE %d", fast.W, ne.WStar)
	}
	if slow.W != ne.WStar {
		t.Errorf("paper search found %d, exact NE %d", slow.W, ne.WStar)
	}
	if fast.ProbeCount()*5 > slow.ProbeCount() {
		t.Errorf("accelerated used %d probes vs paper %d; want >= 5x fewer",
			fast.ProbeCount(), slow.ProbeCount())
	}
}

func TestAnalyticEnvValidation(t *testing.T) {
	g := mustGame(t, 3, phy.Basic)
	if _, err := NewAnalyticEnv(nil, 0, 8, FaultConfig{}); err == nil {
		t.Error("nil game accepted")
	}
	if _, err := NewAnalyticEnv(g, 3, 8, FaultConfig{}); err == nil {
		t.Error("out-of-range leader accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	if StartSearch.String() != "start-search" || Ready.String() != "ready" || Announce.String() != "announce" {
		t.Fatalf("strings: %v %v %v", StartSearch, Ready, Announce)
	}
	if MsgType(9).String() == "" {
		t.Fatal("unknown type has empty string")
	}
}
