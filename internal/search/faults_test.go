package search

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"selfishmac/internal/core"
	"selfishmac/internal/phy"
)

func rtsGame(t testing.TB, n int) *core.Game {
	return mustGame(t, n, phy.RTSCTS)
}

func analyticEnv(t testing.TB, g *core.Game, w0 int, cfg FaultConfig) *AnalyticEnv {
	t.Helper()
	env, err := NewAnalyticEnv(g, 0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestConfigValidate(t *testing.T) {
	below1 := math.Nextafter(1, 0)
	cases := []struct {
		name string
		cfg  FaultConfig
		ok   bool
	}{
		{"DropProb 1", FaultConfig{DropProb: 1}, false},
		{"negative DropProb", FaultConfig{DropProb: -0.1}, false},
		{"NaN DropProb", FaultConfig{DropProb: math.NaN()}, false},
		{"DupProb 1", FaultConfig{DupProb: 1}, false},
		{"OutlierProb 1", FaultConfig{OutlierProb: 1}, false},
		{"FailProb 1", FaultConfig{FailProb: 1}, false},
		{"negative LeaderCrashAfter", FaultConfig{LeaderCrashAfter: -1}, false},
		{"zero", FaultConfig{}, true},
		{"probabilities just below 1",
			FaultConfig{DropProb: below1, DupProb: below1, OutlierProb: below1, FailProb: below1}, true},
		{"LeaderCrashAfter 0", FaultConfig{Seed: 9, DropProb: 0.5, LeaderCrashAfter: 0}, true},
	}
	g := rtsGame(t, 3)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			_, errNew := NewAnalyticEnv(g, 0, 8, tc.cfg)
			if tc.ok {
				if err != nil || errNew != nil {
					t.Errorf("valid config %+v rejected: %v / %v", tc.cfg, err, errNew)
				}
				return
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("Validate(%+v) = %v, want ErrInvalidConfig", tc.cfg, err)
			}
			if !errors.Is(errNew, ErrInvalidConfig) {
				t.Errorf("NewAnalyticEnv accepted the invalid config: %v", errNew)
			}
		})
	}
}

// exactEnv is the search medium at its simplest: perfect delivery and
// exact payoffs straight from core.Game.ProfileUtilities. It counts the
// messages it is sent.
type exactEnv struct {
	g          *core.Game
	leader     int
	cw         []int
	broadcasts int
}

func (e *exactEnv) Broadcast(msg Message) {
	e.broadcasts++
	for i := range e.cw {
		if msg.Type == Announce || i != e.leader {
			e.cw[i] = msg.W
		}
	}
}

func (e *exactEnv) LeaderPayoff(w int) (float64, error) {
	e.cw[e.leader] = w
	us, err := e.g.ProfileUtilities(e.cw)
	if err != nil {
		return 0, err
	}
	return us[e.leader], nil
}

// A zero config must be transparent: the same walk, the same answer and
// bit-equal probes as the exact env, with only broadcasts counted. A
// zero-fault ResilientRun sees every broadcast acked, never retries and
// never fails over, and Failover on a live leader is refused.
func TestZeroConfigIsTransparent(t *testing.T) {
	g := rtsGame(t, 5)
	opts := Options{WMax: g.Config().WMax}
	for _, tc := range []struct {
		name string
		walk func(Env, int, int, Options) (Result, error)
	}{{"Run", Run}, {"AcceleratedSearch", AcceleratedSearch}, {"ResilientRun", ResilientRun}} {
		exact := &exactEnv{g: g, cw: []int{4, 4, 4, 4, 4}}
		want, err := tc.walk(exact, 0, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		env := analyticEnv(t, g, 4, FaultConfig{})
		got, err := tc.walk(env, 0, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.W != want.W || len(got.Probes) != len(want.Probes) {
			t.Fatalf("%s: zero-config walk found W=%d in %d probes, exact env W=%d in %d",
				tc.name, got.W, len(got.Probes), want.W, len(want.Probes))
		}
		for i, p := range got.Probes {
			if q := want.Probes[i]; p.W != q.W || math.Float64bits(p.Payoff) != math.Float64bits(q.Payoff) {
				t.Fatalf("%s: probe %d = %+v, exact env %+v", tc.name, i, p, q)
			}
		}
		if env.Stats != (FaultStats{Broadcasts: exact.broadcasts}) {
			t.Fatalf("%s: zero config stats %+v, want only %d broadcasts", tc.name, env.Stats, exact.broadcasts)
		}
		if !reflect.DeepEqual(env.Profile(), exact.cw) {
			t.Fatalf("%s: profile %v, exact env %v", tc.name, env.Profile(), exact.cw)
		}
	}

	var env Env = analyticEnv(t, g, 4, FaultConfig{})
	ack, isAck := env.(AckEnv)
	fo, isFailover := env.(FailoverEnv)
	if !isAck || !isFailover {
		t.Fatalf("AnalyticEnv: AckEnv %v, FailoverEnv %v; want both", isAck, isFailover)
	}
	res, err := ResilientRun(env, 0, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebroadcasts != 0 || res.Retries != 0 || res.FailedOver {
		t.Fatalf("zero-fault ResilientRun: %d rebroadcasts, %d retries, failed over %v",
			res.Rebroadcasts, res.Retries, res.FailedOver)
	}
	if !ack.LastBroadcastAcked() {
		t.Fatal("zero-fault medium left the last broadcast unacked")
	}
	if _, err := fo.Failover(1); err == nil {
		t.Fatal("Failover accepted on a live leader")
	}
}

// The acceptance scenario of the fault-injection work: drop probability up
// to 0.3, measurement outliers, transient failures, and one leader crash.
// ResilientRun must land within +/-2 of the fault-free NE with Degraded
// unset, on every seed.
func TestResilientRunAcceptanceScenario(t *testing.T) {
	g := rtsGame(t, 10)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{WMax: g.Config().WMax}
	for _, drop := range []float64{0.1, 0.2, 0.3} {
		for seed := uint64(0); seed < 4; seed++ {
			env, err := NewAnalyticEnv(g, 0, 8, FaultConfig{
				Seed:             seed,
				DropProb:         drop,
				OutlierProb:      0.1,
				FailProb:         0.05,
				LeaderCrashAfter: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ResilientRun(env, 0, 8, opts)
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
	g := rtsGame(t, 10)
	cfg := FaultConfig{
		Seed:             42,
		DropProb:         0.25,
		DupProb:          0.1,
		OutlierProb:      0.1,
		FailProb:         0.05,
		LeaderCrashAfter: 6,
	}
	opts := Options{WMax: g.Config().WMax}
	run := func() (Result, FaultStats) {
		env, err := NewAnalyticEnv(g, 0, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ResilientRun(env, 0, 8, opts)
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
	g := rtsGame(t, 10)
	dropsOf := func(cfg FaultConfig) int {
		env, err := NewAnalyticEnv(g, 0, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Fixed message schedule so both runs broadcast identically.
		for w := 8; w < 40; w++ {
			env.Broadcast(Message{Type: Ready, From: 0, W: w})
		}
		return env.Stats.Dropped
	}
	plain := dropsOf(FaultConfig{Seed: 7, DropProb: 0.3})
	noisy := dropsOf(FaultConfig{Seed: 7, DropProb: 0.3, OutlierProb: 0.4, FailProb: 0.2, LeaderCrashAfter: 3})
	if plain != noisy {
		t.Fatalf("enabling measurement faults changed the drop stream: %d vs %d drops", plain, noisy)
	}
}

func TestLeaderCrashAndFailover(t *testing.T) {
	g := rtsGame(t, 6)
	env, err := NewAnalyticEnv(g, 0, 8, FaultConfig{LeaderCrashAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Failover before any crash must be refused.
	if _, err := env.Failover(1); err == nil {
		t.Fatal("failover accepted while the leader is up")
	}
	res, err := ResilientRun(env, 0, 8, Options{WMax: g.Config().WMax})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedOver || res.Leader != 1 {
		t.Fatalf("failedOver=%v leader=%d, want deputy 1", res.FailedOver, res.Leader)
	}
	if env.leader != 1 {
		t.Fatalf("env leader %d, want 1", env.leader)
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
	g := rtsGame(t, 5)
	for seed := uint64(0); seed < 8; seed++ {
		env, err := NewAnalyticEnv(g, 0, 8, FaultConfig{Seed: seed, DropProb: 0.5, LeaderCrashAfter: 1})
		if err != nil {
			t.Fatal(err)
		}
		env.Broadcast(Message{Type: Ready, From: 0, W: 20})
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
			env.Broadcast(Message{Type: Ready, From: 1, W: 20})
		}
		if !env.LastBroadcastAcked() {
			t.Fatalf("seed %d: 100 re-sends after failover never reached a full ack", seed)
		}
	}
}

// Acknowledgement is cumulative: a follower that missed one copy of a
// Ready is acked once any later copy reaches it, so re-sends converge.
func TestAckIsCumulativeAcrossResends(t *testing.T) {
	g := rtsGame(t, 5)
	// Seed chosen arbitrarily; DropProb high enough that a single
	// broadcast usually misses someone.
	env, err := NewAnalyticEnv(g, 0, 8, FaultConfig{Seed: 9, DropProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	env.Broadcast(Message{Type: Ready, From: 0, W: 20})
	for i := 0; i < 50 && !env.LastBroadcastAcked(); i++ {
		env.Broadcast(Message{Type: Ready, From: 0, W: 20})
	}
	if !env.LastBroadcastAcked() {
		t.Fatal("repeated re-sends never converged to a full ack")
	}
	for i, w := range env.Profile() {
		if i != 0 && w != 20 {
			t.Fatalf("follower %d at W=%d after full ack, want 20", i, w)
		}
	}
}

func TestTransientFailuresAndOutliers(t *testing.T) {
	g := rtsGame(t, 5)
	env, err := NewAnalyticEnv(g, 0, 8, FaultConfig{Seed: 5, FailProb: 0.3, OutlierProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	base, err := analyticEnv(t, g, 8, FaultConfig{}).LeaderPayoff(8)
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
	g := rtsGame(t, 6)
	opts := Options{WMax: g.Config().WMax}
	allAt := func(t *testing.T, env *AnalyticEnv, w int) {
		t.Helper()
		for i, cw := range env.Profile() {
			if cw != w {
				t.Fatalf("node %d at W=%d after the announce of %d", i, cw, w)
			}
		}
	}
	t.Run("Run", func(t *testing.T) {
		env, err := NewAnalyticEnv(g, 0, 8, FaultConfig{Seed: 3, DupProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(env, 0, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		allAt(t, env, res.W)
	})
	t.Run("ResilientRun", func(t *testing.T) {
		env, err := NewAnalyticEnv(g, 0, 8, FaultConfig{Seed: 3, DupProb: 0.2, OutlierProb: 0.1, FailProb: 0.05, LeaderCrashAfter: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ResilientRun(env, 0, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FailedOver {
			t.Fatal("the leader crash did not fail over")
		}
		allAt(t, env, res.W)
	})
	t.Run("lossy", func(t *testing.T) {
		env, err := NewAnalyticEnv(g, 0, 8, FaultConfig{Seed: 3, DropProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ResilientRun(env, 0, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		if w := env.Profile()[env.leader]; w != res.W {
			t.Fatalf("leader at W=%d after announcing %d", w, res.W)
		}
	})
}

// With drop as the only fault, AnalyticEnv is the lossy broadcast medium of
// the plain paper walk: 20% per-follower loss leaves stragglers at stale
// CWs, but the payoff plateau keeps the announced W near-optimal.
func TestDropOnlyRunConvergesNearNE(t *testing.T) {
	g := rtsGame(t, 10)
	ne, err := g.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewAnalyticEnv(g, 0, 8, FaultConfig{Seed: 11, DropProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, 0, 8, Options{WMax: g.Config().WMax})
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
	g := rtsGame(t, 10)
	env, err := NewAnalyticEnv(g, 0, 8, FaultConfig{Seed: 7, DropProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	missed := 0
	for w := 9; w < 40; w++ {
		before := env.Stats.Dropped
		env.Broadcast(Message{Type: Ready, From: 0, W: w})
		profile := env.Profile()
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
	g := rtsGame(f, 3)
	const wMax = 64
	opts := Options{WMax: wMax}
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, outlier, fail float64, crashAfter, w0 int) {
		cfg := FaultConfig{Seed: seed, DropProb: drop, DupProb: dup, OutlierProb: outlier,
			FailProb: fail, LeaderCrashAfter: crashAfter}
		if w0 < 1 || w0 > wMax {
			w0 = 1 + int(uint(w0)%wMax)
		}
		run := func() (Result, FaultStats, error) {
			env, err := NewAnalyticEnv(g, 0, w0, cfg)
			if err != nil {
				return Result{}, FaultStats{}, err
			}
			res, err := ResilientRun(env, 0, w0, opts)
			return res, env.Stats, err
		}
		res, stats, err := run()
		if cfg.Validate() != nil {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("invalid config %+v: err %v, want ErrInvalidConfig", cfg, err)
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

// With drop as its only fault AnalyticEnv is the search's lossy
// broadcast medium; it must refuse a missing game and a drop probability
// outside [0, 1).
func TestLossyEnvValidation(t *testing.T) {
	g := mustGame(t, 3, phy.Basic)
	if _, err := NewAnalyticEnv(nil, 0, 8, FaultConfig{Seed: 1, DropProb: 0.1}); !errors.Is(err, ErrNoEnv) {
		t.Errorf("nil game: err %v, want ErrNoEnv", err)
	}
	for _, p := range []float64{1.0, -0.1, math.NaN()} {
		if _, err := NewAnalyticEnv(g, 0, 8, FaultConfig{Seed: 1, DropProb: p}); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("drop probability %g: err %v, want ErrInvalidConfig", p, err)
		}
	}
	for _, p := range []float64{0, 0.2, math.Nextafter(1, 0)} {
		if _, err := NewAnalyticEnv(g, 0, 8, FaultConfig{Seed: 1, DropProb: p}); err != nil {
			t.Errorf("drop probability %g rejected: %v", p, err)
		}
	}
}
