package search

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"selfishmac/internal/phy"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"negative WMax", Options{WMax: -1}},
		{"negative MinImprove", Options{MinImprove: -0.1}},
		{"NaN MinImprove", Options{MinImprove: math.NaN()}},
		{"negative Retries", Options{Retries: -1}},
		{"negative MeasureK", Options{MeasureK: -3}},
		{"negative ProbeBudget", Options{ProbeBudget: -1}},
		{"negative ReadyRepeats", Options{ReadyRepeats: -2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.o.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", tc.o)
			}
			// Every entry point must reject the same options.
			env := tentEnv(5)
			if _, err := Run(env, 0, 4, tc.o); err == nil {
				t.Error("Run accepted invalid options")
			}
			if _, err := AcceleratedSearch(env, 0, 4, tc.o); err == nil {
				t.Error("AcceleratedSearch accepted invalid options")
			}
			if _, err := ResilientRun(env, 0, 4, tc.o); err == nil {
				t.Error("ResilientRun accepted invalid options")
			}
			if _, err := ResilientAcceleratedSearch(env, 0, 4, tc.o); err == nil {
				t.Error("ResilientAcceleratedSearch accepted invalid options")
			}
		})
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

// Without faults the resilient walk must reproduce the paper walk exactly.
func TestResilientRunMatchesRunFaultFree(t *testing.T) {
	for _, peak := range []int{5, 20, 40} {
		plain, err := Run(tentEnv(peak), 0, 20, Options{WMax: 100})
		if err != nil {
			t.Fatal(err)
		}
		hard, err := ResilientRun(tentEnv(peak), 0, 20, Options{WMax: 100, MeasureK: 3})
		if err != nil {
			t.Fatal(err)
		}
		if hard.W != plain.W {
			t.Errorf("peak %d: resilient found %d, paper walk %d", peak, hard.W, plain.W)
		}
		if hard.Degraded || hard.FailedOver {
			t.Errorf("peak %d: fault-free run flagged degraded=%v failedOver=%v",
				peak, hard.Degraded, hard.FailedOver)
		}
		if hard.Direction != plain.Direction {
			t.Errorf("peak %d: direction %d vs %d", peak, hard.Direction, plain.Direction)
		}
	}
}

func TestResilientAcceleratedMatchesFaultFree(t *testing.T) {
	for _, peak := range []int{3, 47, 312} {
		plain, err := AcceleratedSearch(tentEnv(peak), 0, 16, Options{WMax: 4096})
		if err != nil {
			t.Fatal(err)
		}
		hard, err := ResilientAcceleratedSearch(tentEnv(peak), 0, 16, Options{WMax: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if hard.W != plain.W {
			t.Errorf("peak %d: resilient accelerated found %d, plain %d", peak, hard.W, plain.W)
		}
	}
}

// retryEnv fails the first failures calls to LeaderPayoff at each W.
type retryEnv struct {
	funcEnv
	failures int
	seen     map[int]int
}

func (e *retryEnv) LeaderPayoff(w int) (float64, error) {
	if e.seen == nil {
		e.seen = make(map[int]int)
	}
	if e.seen[w]++; e.seen[w] <= e.failures {
		return 0, fmt.Errorf("transient failure %d at W=%d", e.seen[w], w)
	}
	return e.payoff(w), nil
}

func TestResilientRunRetriesTransientFailures(t *testing.T) {
	env := &retryEnv{funcEnv: *tentEnv(15), failures: 2}
	res, err := ResilientRun(env, 0, 10, Options{WMax: 100, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 15 {
		t.Fatalf("found W=%d, want 15", res.W)
	}
	if res.Retries == 0 {
		t.Error("no retries counted despite injected failures")
	}
	if res.Measurements <= res.ProbeCount() {
		t.Errorf("measurements %d should exceed probes %d (retries happened)",
			res.Measurements, res.ProbeCount())
	}
}

func TestResilientRunGivesUpAfterRetries(t *testing.T) {
	// Every measurement fails: the starting point is unmeasurable.
	env := &retryEnv{funcEnv: *tentEnv(15), failures: 1 << 30}
	if _, err := ResilientRun(env, 0, 10, Options{WMax: 100, Retries: 1}); err == nil {
		t.Fatal("permanently failing environment produced a result")
	}
}

// outlierEnv corrupts every third measurement with a huge value.
type outlierEnv struct {
	funcEnv
	calls int
}

func (e *outlierEnv) LeaderPayoff(w int) (float64, error) {
	e.calls++
	if e.calls%3 == 0 {
		return 1e9, nil
	}
	return e.payoff(w), nil
}

func TestResilientRunMedianRejectsOutliers(t *testing.T) {
	env := &outlierEnv{funcEnv: *tentEnv(25)}
	res, err := ResilientRun(env, 0, 10, Options{WMax: 100, MeasureK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 25 {
		t.Fatalf("outliers derailed the walk: W=%d, want 25", res.W)
	}
	plain, err := Run(&outlierEnv{funcEnv: *tentEnv(25)}, 0, 10, Options{WMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if plain.W == 25 {
		t.Skip("plain walk happened to survive the outliers; median had nothing to prove")
	}
}

func TestResilientRunBudgetDegrades(t *testing.T) {
	res, err := ResilientRun(tentEnv(60), 0, 10, Options{WMax: 100, ProbeBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("budget exhausted but Degraded not set")
	}
	if res.Measurements > 8 {
		t.Fatalf("used %d measurements with budget 8", res.Measurements)
	}
	// Best-so-far: the walk was climbing right, so the answer is the best
	// point measured, strictly between start and peak.
	if res.W < 10 || res.W >= 60 {
		t.Fatalf("degraded W=%d outside the climbed range [10, 60)", res.W)
	}
}

func TestResilientRunNoBudgetNoDegrade(t *testing.T) {
	res, err := ResilientRun(tentEnv(20), 0, 10, Options{WMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("unlimited budget run flagged Degraded")
	}
}

// crashingPayoff returns ErrLeaderCrashed (wrapped) after crashAfter
// successful measurements, permanently until reset.
type crashingPayoff struct {
	payoff     func(w int) float64
	crashAfter int
	calls      int
	down       bool
}

func (c *crashingPayoff) measure(w int) (float64, error) {
	c.calls++
	if c.down || c.calls > c.crashAfter {
		c.down = true
		return 0, fmt.Errorf("wrapped: %w", ErrLeaderCrashed)
	}
	return c.payoff(w), nil
}

// crashEnv is a crashing environment with failover support. The deputy
// gets a fresh crash countdown of deputyLife measurements (0 = immortal).
type crashEnv struct {
	funcEnv
	crashingPayoff
	canRecover bool
	deputyLife int
}

func newCrashEnv(peak, crashAfter int, canRecover bool) *crashEnv {
	e := &crashEnv{funcEnv: *tentEnv(peak), canRecover: canRecover}
	e.crashingPayoff = crashingPayoff{payoff: e.funcEnv.payoff, crashAfter: crashAfter}
	return e
}

func (e *crashEnv) LeaderPayoff(w int) (float64, error) { return e.crashingPayoff.measure(w) }

func (e *crashEnv) Failover(proposed int) (int, error) {
	if !e.canRecover {
		return 0, errors.New("no deputy available")
	}
	e.down = false
	e.calls = 0
	if e.deputyLife > 0 {
		e.crashAfter = e.deputyLife
	} else {
		e.crashAfter = 1 << 30
	}
	return proposed, nil
}

// crashNoFailoverEnv crashes but offers no failover at all.
type crashNoFailoverEnv struct {
	funcEnv
	crashingPayoff
}

func newCrashNoFailoverEnv(peak, crashAfter int) *crashNoFailoverEnv {
	e := &crashNoFailoverEnv{funcEnv: *tentEnv(peak)}
	e.crashingPayoff = crashingPayoff{payoff: e.funcEnv.payoff, crashAfter: crashAfter}
	return e
}

func (e *crashNoFailoverEnv) LeaderPayoff(w int) (float64, error) { return e.crashingPayoff.measure(w) }

func TestResilientRunFailover(t *testing.T) {
	env := newCrashEnv(20, 4, true)
	res, err := ResilientRun(env, 0, 10, Options{WMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedOver {
		t.Fatal("leader crash not reported as failover")
	}
	if res.Leader != 1 {
		t.Fatalf("deputy %d, want proposed 1", res.Leader)
	}
	if res.W != 20 {
		t.Fatalf("deputy finished at W=%d, want 20", res.W)
	}
	// The announce must come from the deputy.
	last := env.msgs[len(env.msgs)-1]
	if last.Type != Announce || last.From != 1 {
		t.Fatalf("final message %+v, want announce from deputy 1", last)
	}
}

func TestResilientRunFailoverUnsupported(t *testing.T) {
	// The environment does not implement FailoverEnv: a crash is fatal,
	// but the probes gathered so far must survive.
	env := newCrashNoFailoverEnv(20, 4)
	res, err := ResilientRun(env, 0, 10, Options{WMax: 100})
	if err == nil {
		t.Fatal("crash without failover support produced a result")
	}
	if !errors.Is(err, ErrLeaderCrashed) {
		t.Fatalf("error %v does not wrap ErrLeaderCrashed", err)
	}
	if res.ProbeCount() == 0 {
		t.Error("partial probes discarded on fatal error")
	}
}

func TestResilientRunFailoverRefused(t *testing.T) {
	// Failover exists but fails (no live deputy): fatal.
	env := newCrashEnv(20, 4, false)
	if _, err := ResilientRun(env, 0, 10, Options{WMax: 100}); err == nil {
		t.Fatal("refused failover produced a result")
	}
}

func TestResilientRunDeputyCrashFatal(t *testing.T) {
	// The deputy crashes after 2 more measurements; the runner must treat
	// the second crash as fatal, not loop failovers forever.
	env := newCrashEnv(50, 3, true)
	env.deputyLife = 2
	res, err := ResilientRun(env, 0, 10, Options{WMax: 100})
	if err == nil {
		t.Fatalf("second crash not fatal (W=%d)", res.W)
	}
	if !errors.Is(err, ErrLeaderCrashed) {
		t.Fatalf("error %v does not wrap ErrLeaderCrashed", err)
	}
}

// nackEnv reports every broadcast as missed by someone, forcing the
// maximum number of re-broadcasts.
type nackEnv struct{ funcEnv }

func (e *nackEnv) LastBroadcastAcked() bool { return false }

func TestResilientRunRebroadcastsOnMissingAck(t *testing.T) {
	env := &nackEnv{funcEnv: *tentEnv(12)}
	res, err := ResilientRun(env, 0, 10, Options{WMax: 100, ReadyRepeats: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebroadcasts == 0 {
		t.Fatal("no rebroadcasts despite permanent nack")
	}
	// Announce messages must not be re-broadcast: count them.
	announces := 0
	for _, m := range env.msgs {
		if m.Type == Announce {
			announces++
		}
	}
	if announces != 1 {
		t.Fatalf("%d announce messages, want exactly 1", announces)
	}
}

// The resilient walk against the real analytic game must land on the
// exact efficient NE, like the paper walk.
func TestResilientRunFindsEfficientNEAnalytic(t *testing.T) {
	g := mustGame(t, 5, phy.RTSCTS)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewAnalyticEnv(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResilientRun(env, 0, 4, Options{WMax: g.Config().WMax, MeasureK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != ne.WStar {
		t.Fatalf("resilient walk found W=%d, exact NE %d", res.W, ne.WStar)
	}
}
