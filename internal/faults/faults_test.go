package faults

import (
	"math"
	"reflect"
	"testing"

	"selfishmac/internal/core"
	"selfishmac/internal/phy"
	"selfishmac/internal/search"
)

func mustGame(t testing.TB, n int) *core.Game {
	t.Helper()
	g, err := core.NewGame(core.DefaultConfig(n, phy.RTSCTS))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustEnv(t testing.TB, g *core.Game, w0 int) *search.AnalyticEnv {
	t.Helper()
	env, err := search.NewAnalyticEnv(g, 0, w0)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"DropProb 1", Config{DropProb: 1}},
		{"negative DropProb", Config{DropProb: -0.1}},
		{"NaN DropProb", Config{DropProb: math.NaN()}},
		{"DupProb 1", Config{DupProb: 1}},
		{"OutlierProb 1", Config{OutlierProb: 1}},
		{"FailProb 1", Config{FailProb: 1}},
		{"negative LeaderCrashAfter", Config{LeaderCrashAfter: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", tc.cfg)
			}
			if _, err := New(mustEnv(t, mustGame(t, 3), 8), tc.cfg); err == nil {
				t.Error("New accepted the invalid config")
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil inner env accepted")
	}
}

// A zero config must be a fully transparent wrapper: same walk, same
// answer, no faults counted.
func TestZeroConfigIsTransparent(t *testing.T) {
	g := mustGame(t, 5)
	plain, err := search.Run(mustEnv(t, g, 4), 0, 4, search.Options{WMax: g.Config().WMax})
	if err != nil {
		t.Fatal(err)
	}
	env, err := New(mustEnv(t, g, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := search.Run(env, 0, 4, search.Options{WMax: g.Config().WMax})
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.W != plain.W {
		t.Fatalf("wrapped walk found %d, plain %d", wrapped.W, plain.W)
	}
	if !reflect.DeepEqual(wrapped.Probes, plain.Probes) {
		t.Fatal("zero-config wrapper changed the measured payoffs")
	}
	s := env.Stats
	if s.Dropped != 0 || s.Duplicated != 0 || s.Outliers != 0 ||
		s.TransientFailures != 0 || s.LeaderCrashes != 0 || s.Failovers != 0 {
		t.Fatalf("zero config injected faults: %+v", s)
	}
	if s.Broadcasts == 0 {
		t.Fatal("broadcasts not counted")
	}
}

// The acceptance scenario of the fault-injection work: drop probability up
// to 0.3, measurement outliers, transient failures, and one leader crash.
// ResilientRun must land within +/-2 of the fault-free NE with Degraded
// unset, on every seed.
func TestResilientRunAcceptanceScenario(t *testing.T) {
	g := mustGame(t, 10)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	opts := search.Options{WMax: g.Config().WMax}
	for _, drop := range []float64{0.1, 0.2, 0.3} {
		for seed := uint64(0); seed < 4; seed++ {
			env, err := New(mustEnv(t, g, 8), Config{
				Seed:             seed,
				DropProb:         drop,
				OutlierProb:      0.1,
				FailProb:         0.05,
				LeaderCrashAfter: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := search.ResilientRun(env, 0, 8, opts)
			if err != nil {
				t.Fatalf("drop=%.1f seed=%d: %v", drop, seed, err)
			}
			if d := res.W - ne.WStar; d < -2 || d > 2 {
				t.Errorf("drop=%.1f seed=%d: W=%d, fault-free NE %d (err %+d)",
					drop, seed, res.W, ne.WStar, d)
			}
			if res.Degraded {
				t.Errorf("drop=%.1f seed=%d: Degraded set without a probe budget", drop, seed)
			}
			if !res.FailedOver || env.Stats.Failovers != 1 {
				t.Errorf("drop=%.1f seed=%d: leader crash not failed over (stats %+v)",
					drop, seed, env.Stats)
			}
		}
	}
}

// The same seed must replay byte-identically: identical Result, identical
// Stats, down to every counter.
func TestScenarioReplaysByteIdentical(t *testing.T) {
	g := mustGame(t, 10)
	cfg := Config{
		Seed:             42,
		DropProb:         0.25,
		DupProb:          0.1,
		OutlierProb:      0.1,
		FailProb:         0.05,
		LeaderCrashAfter: 6,
	}
	opts := search.Options{WMax: g.Config().WMax}
	run := func() (search.Result, Stats) {
		env, err := New(mustEnv(t, g, 8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := search.ResilientRun(env, 0, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, env.Stats
	}
	res1, stats1 := run()
	res2, stats2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("results differ across replays:\n%+v\n%+v", res1, res2)
	}
	if stats1 != stats2 {
		t.Fatalf("stats differ across replays:\n%+v\n%+v", stats1, stats2)
	}
}

// Enabling one fault must not shift another fault's stream: with the same
// seed, the drop pattern is identical whether or not outliers are on.
func TestFaultStreamsAreIndependent(t *testing.T) {
	g := mustGame(t, 10)
	dropsOf := func(cfg Config) int {
		env, err := New(mustEnv(t, g, 8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Fixed message schedule so both runs broadcast identically.
		for w := 8; w < 40; w++ {
			env.Broadcast(search.Message{Type: search.Ready, From: 0, W: w})
		}
		return env.Stats.Dropped
	}
	plain := dropsOf(Config{Seed: 7, DropProb: 0.3})
	noisy := dropsOf(Config{Seed: 7, DropProb: 0.3, OutlierProb: 0.4, FailProb: 0.2, LeaderCrashAfter: 3})
	if plain != noisy {
		t.Fatalf("enabling measurement faults changed the drop stream: %d vs %d drops", plain, noisy)
	}
}

func TestLeaderCrashAndFailover(t *testing.T) {
	g := mustGame(t, 6)
	inner := mustEnv(t, g, 8)
	env, err := New(inner, Config{LeaderCrashAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Failover before any crash must be refused.
	if _, err := env.Failover(1); err == nil {
		t.Fatal("failover accepted while the leader is up")
	}
	res, err := search.ResilientRun(env, 0, 8, search.Options{WMax: g.Config().WMax})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedOver || res.Leader != 1 {
		t.Fatalf("failedOver=%v leader=%d, want deputy 1", res.FailedOver, res.Leader)
	}
	if inner.LeaderID() != 1 {
		t.Fatalf("inner env leader %d, want 1", inner.LeaderID())
	}
	if env.Stats.LeaderCrashes != 1 || env.Stats.Failovers != 1 {
		t.Fatalf("stats %+v, want one crash and one failover", env.Stats)
	}
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	if res.W != ne.WStar {
		t.Fatalf("deputy finished at W=%d, exact NE %d", res.W, ne.WStar)
	}
}

// A deputy that missed the last Ready before the crash must leave the
// acknowledgement set when promoted: deliveries skip the leader, so a
// stale deputy would keep every later broadcast unacked.
func TestFailoverDropsDeputyFromAckSet(t *testing.T) {
	g := mustGame(t, 5)
	for seed := uint64(0); seed < 8; seed++ {
		inner := mustEnv(t, g, 8)
		env, err := New(inner, Config{Seed: seed, DropProb: 0.5, LeaderCrashAfter: 1})
		if err != nil {
			t.Fatal(err)
		}
		env.Broadcast(search.Message{Type: search.Ready, From: 0, W: 20})
		if _, err := env.LeaderPayoff(20); err != nil {
			t.Fatal(err)
		}
		if _, err := env.LeaderPayoff(20); err == nil {
			t.Fatal("leader did not crash after one measurement")
		}
		if _, err := env.Failover(1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100 && !env.LastBroadcastAcked(); i++ {
			env.Broadcast(search.Message{Type: search.Ready, From: 1, W: 20})
		}
		if !env.LastBroadcastAcked() {
			t.Fatalf("seed %d: 100 re-sends after failover never reached a full ack", seed)
		}
	}
}

// Acknowledgement is cumulative: a follower that missed one copy of a
// Ready is acked once any later copy reaches it, so re-sends converge.
func TestAckIsCumulativeAcrossResends(t *testing.T) {
	g := mustGame(t, 5)
	inner := mustEnv(t, g, 8)
	// Seed chosen arbitrarily; DropProb high enough that a single
	// broadcast usually misses someone.
	env, err := New(inner, Config{Seed: 9, DropProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	env.Broadcast(search.Message{Type: search.Ready, From: 0, W: 20})
	for i := 0; i < 50 && !env.LastBroadcastAcked(); i++ {
		env.Broadcast(search.Message{Type: search.Ready, From: 0, W: 20})
	}
	if !env.LastBroadcastAcked() {
		t.Fatal("repeated re-sends never converged to a full ack")
	}
	for i, w := range inner.Profile() {
		if i != 0 && w != 20 {
			t.Fatalf("follower %d at W=%d after full ack, want 20", i, w)
		}
	}
}

func TestTransientFailuresAndOutliers(t *testing.T) {
	g := mustGame(t, 5)
	env, err := New(mustEnv(t, g, 8), Config{Seed: 5, FailProb: 0.3, OutlierProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	base, err := mustEnv(t, g, 8).LeaderPayoff(8)
	if err != nil {
		t.Fatal(err)
	}
	var failures, outliers int
	for i := 0; i < 200; i++ {
		v, err := env.LeaderPayoff(8)
		if err != nil {
			failures++
			continue
		}
		if math.Abs(v-base) > 1e-9 {
			outliers++
			if math.Abs(v) < 10*math.Abs(base) {
				t.Fatalf("outlier %g not gross relative to true %g", v, base)
			}
		}
	}
	if failures == 0 || outliers == 0 {
		t.Fatalf("200 measurements: %d failures, %d outliers; want both > 0", failures, outliers)
	}
	if env.Stats.TransientFailures != failures || env.Stats.Outliers != outliers {
		t.Fatalf("stats %+v disagree with observed %d/%d", env.Stats, failures, outliers)
	}
}

// §V.C ends with every node adopting the announced W. Over a medium that
// loses nothing, the whole profile holds W after Run and after
// ResilientRun, including a crashed leader that became a follower and
// the deputy that announced. Under loss the announcing leader still
// holds W.
func TestAnnounceSetsEveryCW(t *testing.T) {
	g := mustGame(t, 6)
	opts := search.Options{WMax: g.Config().WMax}
	allAt := func(t *testing.T, inner *search.AnalyticEnv, w int) {
		t.Helper()
		for i, cw := range inner.Profile() {
			if cw != w {
				t.Fatalf("node %d at W=%d after the announce of %d", i, cw, w)
			}
		}
	}
	t.Run("Run", func(t *testing.T) {
		inner := mustEnv(t, g, 8)
		env, err := New(inner, Config{Seed: 3, DupProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := search.Run(env, 0, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		allAt(t, inner, res.W)
	})
	t.Run("ResilientRun", func(t *testing.T) {
		inner := mustEnv(t, g, 8)
		env, err := New(inner, Config{Seed: 3, DupProb: 0.2, OutlierProb: 0.1, FailProb: 0.05, LeaderCrashAfter: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := search.ResilientRun(env, 0, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FailedOver {
			t.Fatal("the leader crash did not fail over")
		}
		allAt(t, inner, res.W)
	})
	t.Run("lossy", func(t *testing.T) {
		inner := mustEnv(t, g, 8)
		env, err := New(inner, Config{Seed: 3, DropProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := search.ResilientRun(env, 0, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		if w := inner.Profile()[inner.LeaderID()]; w != res.W {
			t.Fatalf("leader at W=%d after announcing %d", w, res.W)
		}
	})
}

// With drop as the only fault, FaultyEnv is the lossy broadcast medium of
// the plain paper walk: 20% per-follower loss leaves stragglers at stale
// CWs, but the payoff plateau keeps the announced W near-optimal.
func TestDropOnlyRunConvergesNearNE(t *testing.T) {
	g := mustGame(t, 10)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	env, err := New(mustEnv(t, g, 8), Config{Seed: 11, DropProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(env, 0, 8, search.Options{WMax: g.Config().WMax})
	if err != nil {
		t.Fatal(err)
	}
	if env.Stats.Dropped == 0 {
		t.Fatal("20% loss over a full walk dropped nothing")
	}
	u, err := g.UniformUtilityRate(res.W)
	if err != nil {
		t.Fatal(err)
	}
	// The walk still has to end on the payoff plateau (within 5% of the
	// peak utility).
	if u < 0.95*ne.UStar {
		t.Errorf("lossy search found W=%d with utility %.3g vs peak %.3g (NE %d)",
			res.W, u, ne.UStar, ne.WStar)
	}
}

// Stats.Dropped counts (message, follower) losses: after each Ready with
// a fresh W, the followers still at an older CW are exactly the new
// drops, and the broadcast is acked exactly when there are none. The
// leader never misses its own broadcast, and its CW is never touched by
// one.
func TestDroppedCountsPerFollowerLosses(t *testing.T) {
	g := mustGame(t, 10)
	inner := mustEnv(t, g, 8)
	env, err := New(inner, Config{Seed: 7, DropProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	missed := 0
	for w := 9; w < 40; w++ {
		before := env.Stats.Dropped
		env.Broadcast(search.Message{Type: search.Ready, From: 0, W: w})
		profile := inner.Profile()
		stale := 0
		for _, cw := range profile[1:] {
			if cw != w {
				stale++
			}
		}
		if acked := env.LastBroadcastAcked(); acked != (stale == 0) {
			t.Fatalf("W=%d: %d followers missed it, acked=%v", w, stale, acked)
		}
		if got := env.Stats.Dropped - before; got != stale {
			t.Fatalf("W=%d: Dropped grew by %d, %d followers missed it", w, got, stale)
		}
		if profile[0] != 8 {
			t.Fatalf("W=%d: broadcast moved the leader's CW to %d", w, profile[0])
		}
		missed += stale
	}
	if missed == 0 {
		t.Fatal("30% loss produced no misses")
	}
	if env.Stats.Broadcasts != 31 {
		t.Fatalf("Broadcasts = %d, want 31", env.Stats.Broadcasts)
	}
}

// FuzzFaultyResilientRun drives the resilient walk through arbitrary
// fault configurations on a small analytic game. A bad config must be an
// error, never a panic; a valid one must announce a W in [1, WMax] (or
// fail only because the starting CW could not be measured at all); and a
// second run from the same config must reproduce the same Result and
// Stats.
func FuzzFaultyResilientRun(f *testing.F) {
	f.Add(uint64(0), 0.0, 0.0, 0.0, 0.0, 0, 8)
	f.Add(uint64(42), 0.25, 0.1, 0.1, 0.05, 6, 8)
	f.Add(uint64(7), 0.3, 0.05, 0.1, 0.05, 5, 60)
	f.Add(uint64(1), 0.9, 0.9, 0.9, 0.9, 1, 1)
	f.Add(uint64(3), 1.0, -0.1, math.NaN(), 0.0, -1, 8)
	g := mustGame(f, 3)
	const wMax = 64
	opts := search.Options{WMax: wMax}
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, outlier, fail float64, crashAfter, w0 int) {
		cfg := Config{Seed: seed, DropProb: drop, DupProb: dup, OutlierProb: outlier,
			FailProb: fail, LeaderCrashAfter: crashAfter}
		if w0 < 1 || w0 > wMax {
			w0 = 1 + int(uint(w0)%wMax)
		}
		run := func() (search.Result, Stats, error) {
			env, err := New(mustEnv(t, g, w0), cfg)
			if err != nil {
				return search.Result{}, Stats{}, err
			}
			res, err := search.ResilientRun(env, 0, w0, opts)
			return res, env.Stats, err
		}
		res, stats, err := run()
		if cfg.Validate() != nil {
			if err == nil {
				t.Fatalf("invalid config %+v accepted", cfg)
			}
			return
		}
		if err != nil {
			if len(res.Probes) != 0 {
				t.Fatalf("run failed after measuring %d points: %v", len(res.Probes), err)
			}
		} else if res.W < 1 || res.W > wMax {
			t.Fatalf("announced W=%d outside [1, %d]", res.W, wMax)
		}
		res2, stats2, err2 := run()
		if !reflect.DeepEqual(res, res2) || stats != stats2 || (err == nil) != (err2 == nil) {
			t.Fatalf("replay differs:\n%+v %+v %v\n%+v %+v %v", res, stats, err, res2, stats2, err2)
		}
	})
}
