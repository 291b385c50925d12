package macsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"selfishmac/internal/backoff"
	"selfishmac/internal/bianchi"
	"selfishmac/internal/phy"
	"selfishmac/internal/stats"
)

func basicTiming(t testing.TB) phy.Timing {
	t.Helper()
	return phy.Default().MustTiming(phy.Basic)
}

func defaultConfig(t testing.TB, cw []int) Config {
	t.Helper()
	return Config{Run: backoff.Default(phy.Basic, cw, 50e6, 1)} // 50 s
}

func TestValidate(t *testing.T) {
	good := defaultConfig(t, []int{32, 32})
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	// The shared backoff.Run mutations (CW, MaxStage, Duration, Timing,
	// Gain and Cost, each zero, negative, NaN or infinite) run through
	// Validate, Run, RunReference and NewEngine in
	// multihop.TestSimConfigValidate; these rows are the checks only a
	// macsim.Config makes.
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"no nodes", func(c *Config) { c.CW = nil }},
		{"NaN PerNodeTs", func(c *Config) { c.PerNodeTs = []float64{c.Timing.Ts, math.NaN()} }},
		{"+Inf PerNodeTc", func(c *Config) { c.PerNodeTc = []float64{math.Inf(1), c.Timing.Tc} }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			c := defaultConfig(t, []int{32, 32})
			tc.mut(&c)
			if err := c.Validate(); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Validate on %s: got %v, want an error wrapping ErrInvalidConfig", tc.name, err)
			}
			if _, err := Run(c); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Run on %s: got %v, want an error wrapping ErrInvalidConfig", tc.name, err)
			}
			if _, err := NewEngine(c); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("NewEngine on %s: got %v, want an error wrapping ErrInvalidConfig", tc.name, err)
			}
		})
	}
}

func TestDeterministicBySeed(t *testing.T) {
	cfg := defaultConfig(t, []int{64, 64, 64})
	cfg.Duration = 5e6
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Slots != b.Slots || a.Time != b.Time {
		t.Fatalf("same seed diverged: %d/%g vs %d/%g", a.Slots, a.Time, b.Slots, b.Time)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d stats diverged", i)
		}
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes[0].Attempts == a.Nodes[0].Attempts && c.Nodes[0].Successes == a.Nodes[0].Successes {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestCountingInvariants(t *testing.T) {
	cfg := defaultConfig(t, []int{32, 64, 128, 256})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var attempts, successes, collisions int64
	for _, n := range res.Nodes {
		if n.Attempts != n.Successes+n.Collisions {
			t.Errorf("attempts %d != successes %d + collisions %d", n.Attempts, n.Successes, n.Collisions)
		}
		attempts += n.Attempts
		successes += n.Successes
		collisions += n.Collisions
	}
	if successes != res.SuccessEvents {
		t.Errorf("node successes %d != success events %d", successes, res.SuccessEvents)
	}
	if collisions < 2*res.CollisionEvents {
		t.Errorf("collision events %d need >= 2 transmitters each, nodes recorded %d", res.CollisionEvents, collisions)
	}
	if res.Slots != res.IdleSlots+res.SuccessEvents+res.CollisionEvents {
		t.Errorf("slot decomposition broken: %d != %d + %d + %d",
			res.Slots, res.IdleSlots, res.SuccessEvents, res.CollisionEvents)
	}
	if res.Time < cfg.Duration {
		t.Errorf("simulated time %g below requested %g", res.Time, cfg.Duration)
	}
}

func TestTimeAccounting(t *testing.T) {
	cfg := defaultConfig(t, []int{32, 32})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := cfg.Timing
	want := float64(res.IdleSlots)*tm.Slot + float64(res.SuccessEvents)*tm.Ts + float64(res.CollisionEvents)*tm.Tc
	if math.Abs(res.Time-want) > 1e-6*want {
		t.Fatalf("time %g != decomposed %g", res.Time, want)
	}
}

// The headline validation: simulated tau, p and throughput must match the
// analytic Bianchi fixed point for uniform profiles.
func TestMatchesBianchiUniform(t *testing.T) {
	type cell struct{ w, n int }
	// The operating points per mode: basic access at the paper's
	// efficient-NE windows (76, 336, 879 at n = 5, 20, 50), RTS/CTS at
	// this repo's Wc* for the same n (12, 47, 118; Table III). RTS/CTS
	// also keeps the basic n = 5 and 20 windows, and both modes an
	// aggressive W = 32 at n = 10.
	for _, mc := range []struct {
		mode  phy.AccessMode
		cells []cell
	}{
		{phy.Basic, []cell{{76, 5}, {336, 20}, {879, 50}, {32, 10}}},
		{phy.RTSCTS, []cell{{76, 5}, {336, 20}, {32, 10}, {12, 5}, {47, 20}, {118, 50}}},
	} {
		mode := mc.mode
		tm := phy.Default().MustTiming(mode)
		model, err := bianchi.New(tm, phy.Default().MaxBackoffStage)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range mc.cells {
			res, err := Run(Config{Run: backoff.Default(mode, backoff.Uniform(tc.w, tc.n), 100e6, 42)})
			if err != nil {
				t.Fatal(err)
			}
			sol, err := model.SolveUniform(tc.w, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			var tauSim, pSim float64
			for _, nd := range res.Nodes {
				tauSim += nd.MeasuredTau
				pSim += nd.MeasuredP
			}
			tauSim /= float64(tc.n)
			pSim /= float64(tc.n)
			if rel := stats.RelErr(tauSim, sol.Tau[0]); rel > 0.03 {
				t.Errorf("mode=%v w=%d n=%d: sim tau %g vs analytic %g (rel %.3f)", mode, tc.w, tc.n, tauSim, sol.Tau[0], rel)
			}
			if rel := stats.RelErr(pSim, sol.P[0]); rel > 0.05 {
				t.Errorf("mode=%v w=%d n=%d: sim p %g vs analytic %g (rel %.3f)", mode, tc.w, tc.n, pSim, sol.P[0], rel)
			}
			if rel := stats.RelErr(res.Throughput, sol.Throughput); rel > 0.03 {
				t.Errorf("mode=%v w=%d n=%d: sim throughput %g vs analytic %g (rel %.3f)", mode, tc.w, tc.n, res.Throughput, sol.Throughput, rel)
			}
		}
	}
}

// Heterogeneous profiles: the simulator (exact) must stay close to the
// analytic mean-field solution.
func TestMatchesBianchiHeterogeneous(t *testing.T) {
	tm := basicTiming(t)
	model, err := bianchi.New(tm, phy.Default().MaxBackoffStage)
	if err != nil {
		t.Fatal(err)
	}
	cw := []int{32, 64, 128, 256, 512}
	cfg := defaultConfig(t, cw)
	cfg.Duration = 100e6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.Solve(cw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cw {
		if rel := stats.RelErr(res.Nodes[i].MeasuredTau, sol.Tau[i]); rel > 0.06 {
			t.Errorf("node %d (W=%d): sim tau %g vs analytic %g (rel %.3f)",
				i, cw[i], res.Nodes[i].MeasuredTau, sol.Tau[i], rel)
		}
	}
}

// Lemma 1 in the simulator: a node with a larger CW transmits less, wins
// less and earns less.
func TestSimulatedLemma1Ordering(t *testing.T) {
	cfg := defaultConfig(t, []int{50, 200})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, pas := res.Nodes[0], res.Nodes[1]
	if agg.MeasuredTau <= pas.MeasuredTau {
		t.Errorf("aggressive tau %g <= passive %g", agg.MeasuredTau, pas.MeasuredTau)
	}
	if agg.PayoffRate <= pas.PayoffRate {
		t.Errorf("aggressive payoff %g <= passive %g", agg.PayoffRate, pas.PayoffRate)
	}
	// Lemma 1: the *larger*-CW node faces the larger collision
	// probability (its peers transmit more often than it does).
	if pas.MeasuredP <= agg.MeasuredP {
		t.Errorf("passive collision rate %g <= aggressive %g, Lemma 1 violated", pas.MeasuredP, agg.MeasuredP)
	}
}

func TestSingleNodeNeverCollides(t *testing.T) {
	cfg := defaultConfig(t, []int{16})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[0].Collisions != 0 || res.CollisionEvents != 0 {
		t.Fatalf("single node collided: %+v", res.Nodes[0])
	}
	if res.Nodes[0].Successes == 0 {
		t.Fatal("single node never transmitted")
	}
}

func TestPayoffRateDefinition(t *testing.T) {
	cfg := defaultConfig(t, []int{64, 64})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n0 := res.Nodes[0]
	want := (float64(n0.Successes)*cfg.Gain - float64(n0.Attempts)*cfg.Cost) / res.Time
	if math.Abs(n0.PayoffRate-want) > 1e-15 {
		t.Fatalf("payoff rate %g != definition %g", n0.PayoffRate, want)
	}
}

func TestThroughputBounds(t *testing.T) {
	cfg := defaultConfig(t, []int{100, 100, 100, 100, 100})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.Throughput >= 1 {
		t.Fatalf("global throughput = %g outside (0, 1)", res.Throughput)
	}
}

// W=1 with m=0 forces both nodes to transmit in every slot: pure collision.
func TestDegenerateAllCollide(t *testing.T) {
	cfg := defaultConfig(t, []int{1, 1})
	cfg.MaxStage = 0
	cfg.Duration = 1e6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessEvents != 0 {
		t.Fatalf("W=1/m=0 pair should never succeed, got %d successes", res.SuccessEvents)
	}
	if res.Nodes[0].PayoffRate >= 0 {
		t.Fatalf("pure-collision payoff %g, want negative", res.Nodes[0].PayoffRate)
	}
}

func BenchmarkRun20Nodes(b *testing.B) {
	cfg := Config{
		Run: backoff.Run{
			Timing:   phy.Default().MustTiming(phy.Basic),
			MaxStage: 6,
			CW:       make([]int, 20),
			Duration: 10e6,
			Seed:     1,
			Gain:     1,
			Cost:     0.01,
		},
	}
	for i := range cfg.CW {
		cfg.CW[i] = 336
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: across random configurations, the simulator's counting and
// time invariants hold exactly.
func TestInvariantsProperty(t *testing.T) {
	tm := basicTiming(t)
	f := func(seed uint64, nRaw, wRaw uint8) bool {
		n := 2 + int(nRaw%8)
		cw := make([]int, n)
		r := seed
		for i := range cw {
			r = r*6364136223846793005 + 1442695040888963407
			cw[i] = 1 + int((r>>33)%uint64(4+int(wRaw)%500))
		}
		res, err := Run(Config{
			Run: backoff.Run{
				Timing:   tm,
				MaxStage: 6,
				CW:       cw,
				Duration: 3e6,
				Seed:     seed,
				Gain:     1,
				Cost:     0.01,
			},
		})
		if err != nil {
			return false
		}
		var successes, collisions int64
		for _, nd := range res.Nodes {
			if nd.Attempts != nd.Successes+nd.Collisions {
				return false
			}
			successes += nd.Successes
			collisions += nd.Collisions
		}
		if successes != res.SuccessEvents {
			return false
		}
		if res.CollisionEvents > 0 && collisions < 2*res.CollisionEvents {
			return false
		}
		if res.Slots != res.IdleSlots+res.SuccessEvents+res.CollisionEvents {
			return false
		}
		want := float64(res.IdleSlots)*tm.Slot + float64(res.SuccessEvents)*tm.Ts + float64(res.CollisionEvents)*tm.Tc
		return math.Abs(res.Time-want) <= 1e-6*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Uniform profiles must be fair: Jain's index of per-node successes near 1.
func TestUniformFairness(t *testing.T) {
	res, err := Run(Config{Run: backoff.Default(phy.Basic, backoff.Uniform(128, 10), 100e6, 17)})
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]float64, len(res.Nodes))
	for i, nd := range res.Nodes {
		shares[i] = float64(nd.Successes)
	}
	if idx := stats.JainIndex(shares); idx < 0.99 {
		t.Fatalf("Jain index %g for a uniform profile, want ~1", idx)
	}
}

func TestPerNodeDurationValidation(t *testing.T) {
	cfg := defaultConfig(t, []int{32, 32})
	cfg.PerNodeTs = []float64{100} // wrong length
	if err := cfg.Validate(); err == nil {
		t.Error("short PerNodeTs accepted")
	}
	cfg = defaultConfig(t, []int{32, 32})
	cfg.PerNodeTc = []float64{100, -1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative PerNodeTc accepted")
	}
}

// With uniform per-node overrides equal to the Timing values, results
// must be identical to the default path.
func TestPerNodeDurationsUniformEquivalence(t *testing.T) {
	base := defaultConfig(t, []int{64, 64, 64})
	base.Duration = 10e6
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.PerNodeTs = []float64{base.Timing.Ts, base.Timing.Ts, base.Timing.Ts}
	over.PerNodeTc = []float64{base.Timing.Tc, base.Timing.Tc, base.Timing.Tc}
	got, err := Run(over)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || got.Slots != want.Slots {
		t.Fatalf("uniform overrides changed the run: %g/%d vs %g/%d",
			got.Time, got.Slots, want.Time, want.Slots)
	}
}

// A node with longer frames earns the same number of successes (same CW)
// but stretches the shared time, lowering everyone's payoff rate.
func TestPerNodeDurationsStretchTime(t *testing.T) {
	base := defaultConfig(t, []int{64, 64})
	base.Duration = 50e6
	short, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	long := base
	long.PerNodeTs = []float64{3 * base.Timing.Ts, base.Timing.Ts}
	long.PerNodeTc = []float64{3 * base.Timing.Tc, base.Timing.Tc}
	stretched, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same backoff trajectory: equal event counts until the
	// duration cutoff, but more elapsed time per event.
	rateShort := float64(short.SuccessEvents) / short.Time
	rateLong := float64(stretched.SuccessEvents) / stretched.Time
	if rateLong >= rateShort {
		t.Fatalf("longer frames did not reduce the success rate: %g >= %g", rateLong, rateShort)
	}
}
