package search

import (
	"errors"
	"fmt"
	"testing"

	"selfishmac/internal/phy"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		ok   bool
	}{
		{"negative WMax", Options{WMax: -1}, false},
		{"negative ProbeBudget", Options{ProbeBudget: -1}, false},
		{"WMax 0", Options{WMax: 0, ProbeBudget: 50}, true},
		{"ProbeBudget 0", Options{WMax: 100, ProbeBudget: 0}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Every entry point must accept and reject the same options.
			errs := map[string]error{"Validate": tc.o.Validate()}
			env := tentEnv(5)
			_, errs["Run"] = Run(env, 0, 4, tc.o)
			_, errs["AcceleratedSearch"] = AcceleratedSearch(env, 0, 4, tc.o)
			_, errs["ResilientRun"] = ResilientRun(env, 0, 4, tc.o)
			for name, err := range errs {
				if tc.ok && err != nil {
					t.Errorf("%s rejected %+v: %v", name, tc.o, err)
				}
				if !tc.ok && !errors.Is(err, ErrInvalidConfig) {
					t.Errorf("%s(%+v) = %v, want ErrInvalidConfig", name, tc.o, err)
				}
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
		hard, err := ResilientRun(tentEnv(peak), 0, 20, Options{WMax: 100})
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
	res, err := ResilientRun(env, 0, 10, Options{WMax: 100})
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

// ResilientRun measures every operating point as the median of three
// samples and retries a failed sample up to three times. A fault-free walk
// takes exactly three samples per probe and retries nothing. When the
// first calls at each W fail, three failures cost the first sample its
// three retries; eleven cost every sample three and leave the third
// sample's last attempt, and twelve leave the starting CW unmeasured.
func TestResilientRunConstants(t *testing.T) {
	res, err := ResilientRun(tentEnv(30), 0, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 30 {
		t.Fatalf("fault-free walk found W=%d, want 30", res.W)
	}
	if res.Measurements != 3*res.ProbeCount() || res.Retries != 0 {
		t.Fatalf("fault-free walk: %d measurements, %d retries for %d probes; want 3 per probe, 0 retries",
			res.Measurements, res.Retries, res.ProbeCount())
	}

	for _, tc := range []struct{ failures, retriesPerW int }{{3, 3}, {11, 9}} {
		env := &retryEnv{funcEnv: *tentEnv(30), failures: tc.failures}
		res, err := ResilientRun(env, 0, 10, Options{})
		if err != nil {
			t.Fatalf("%d failures per W: %v", tc.failures, err)
		}
		if res.W != 30 {
			t.Fatalf("%d failures per W: found W=%d, want 30", tc.failures, res.W)
		}
		if res.Retries != tc.retriesPerW*len(env.seen) {
			t.Fatalf("%d failures per W: %d retries over %d distinct W, want %d each",
				tc.failures, res.Retries, len(env.seen), tc.retriesPerW)
		}
	}
	env := &retryEnv{funcEnv: *tentEnv(30), failures: 12}
	if _, err := ResilientRun(env, 0, 10, Options{}); err == nil {
		t.Fatal("12 failures at the starting CW produced a result")
	}
}

func TestResilientRunGivesUpAfterRetries(t *testing.T) {
	// Every measurement fails: the starting point is unmeasurable.
	env := &retryEnv{funcEnv: *tentEnv(15), failures: 1 << 30}
	if _, err := ResilientRun(env, 0, 10, Options{WMax: 100}); err == nil {
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
	res, err := ResilientRun(env, 0, 10, Options{WMax: 100})
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
	res, err := ResilientRun(env, 0, 10, Options{WMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebroadcasts == 0 {
		t.Fatal("no rebroadcasts despite permanent nack")
	}
	// Announce messages must not be re-broadcast: count them. Each probe
	// follows one StartSearch or Ready, which goes out once plus
	// readyRepeats re-sends, and once more before each of the probe's
	// measureK-1 later samples.
	announces, others := 0, 0
	for _, m := range env.msgs {
		if m.Type == Announce {
			announces++
		} else {
			others++
		}
	}
	if announces != 1 {
		t.Fatalf("%d announce messages, want exactly 1", announces)
	}
	perProbe := readyRepeats + measureK - 1
	if res.Rebroadcasts != perProbe*res.ProbeCount() || others != (1+perProbe)*res.ProbeCount() {
		t.Fatalf("%d non-announce messages with %d rebroadcasts for %d probes, want each sent 1+%d times",
			others, res.Rebroadcasts, res.ProbeCount(), perProbe)
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
	env, err := NewAnalyticEnv(g, 0, 4, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResilientRun(env, 0, 4, Options{WMax: g.Config().WMax})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != ne.WStar {
		t.Fatalf("resilient walk found W=%d, exact NE %d", res.W, ne.WStar)
	}
}
