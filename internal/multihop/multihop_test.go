package multihop

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"selfishmac/internal/backoff"
	"selfishmac/internal/bianchi"
	"selfishmac/internal/core"
	"selfishmac/internal/macsim"
	"selfishmac/internal/phy"
	"selfishmac/internal/replicate"
	"selfishmac/internal/stats"
	"selfishmac/internal/topology"
)

// cliqueNetwork returns a network whose nodes are all mutually in range.
func cliqueNetwork(t testing.TB, n int) *topology.Network {
	t.Helper()
	nw, err := topology.New(topology.Config{
		N: n, Width: 50, Height: 50, Range: 1000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func paperNetwork(t testing.TB, seed uint64) *topology.Network {
	t.Helper()
	nw, err := topology.New(topology.PaperConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestSimulateValidation(t *testing.T) {
	nw := cliqueNetwork(t, 3)
	cfg := DefaultSimConfig(1e6, 1)
	cfg.CW = backoff.Uniform(32, 2) // wrong length
	if _, err := Simulate(nw, cfg); err == nil {
		t.Error("wrong-length profile accepted")
	}
	cfg.CW = backoff.Uniform(0, 3)
	if _, err := Simulate(nw, cfg); err == nil {
		t.Error("CW 0 accepted")
	}
	cfg.CW = backoff.Uniform(32, 3)
	cfg.Duration = 0
	if _, err := Simulate(nw, cfg); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestSimConfigValidate is the one table of invalid run parameters for
// both simulators. Every row is rejected by every entry point of the
// spatial simulator with an error wrapping ErrInvalidSimConfig and, for
// the shared run parameters (backoff.Run), by every entry point of the
// single-hop simulator with one wrapping macsim.ErrInvalidConfig. The
// valid baselines are accepted by all of them.
func TestSimConfigValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name     string
		mutate   func(*SimConfig)
		cwOnly   bool // NewEngine ignores CW, so it cannot reject it
		spatial  bool // a check only the spatial simulator makes
		wantFail bool
	}{
		{"valid", func(*SimConfig) {}, false, false, false},
		{"valid mobility", func(c *SimConfig) { c.MobilityEvery = 1e5 }, false, true, false},
		{"CW wrong length", func(c *SimConfig) { c.CW = c.CW[:2] }, true, true, true},
		{"CW zero", func(c *SimConfig) { c.CW[1] = 0 }, true, false, true},
		{"MaxStage negative", func(c *SimConfig) { c.MaxStage = -1 }, false, false, true},
		{"MaxStage too large", func(c *SimConfig) { c.MaxStage = 17 }, false, false, true},
		{"Duration zero", func(c *SimConfig) { c.Duration = 0 }, false, false, true},
		{"Duration NaN", func(c *SimConfig) { c.Duration = nan }, false, false, true},
		{"Duration +Inf", func(c *SimConfig) { c.Duration = inf }, false, false, true},
		{"Duration past 2^62 slots", func(c *SimConfig) { c.Duration = 1e300 }, false, false, true},
		{"Timing.Slot zero", func(c *SimConfig) { c.Timing.Slot = 0 }, false, false, true},
		{"Timing.Slot NaN", func(c *SimConfig) { c.Timing.Slot = nan }, false, false, true},
		{"Timing.Slot +Inf", func(c *SimConfig) { c.Timing.Slot = inf }, false, false, true},
		{"Timing.Slot past 2^62 slots", func(c *SimConfig) { c.Timing.Slot = 1e-300 }, false, false, true},
		{"Timing.Ts NaN", func(c *SimConfig) { c.Timing.Ts = nan }, false, false, true},
		{"Timing.Ts zero", func(c *SimConfig) { c.Timing.Ts = 0 }, false, false, true},
		{"Timing.Ts +Inf", func(c *SimConfig) { c.Timing.Ts = inf }, false, false, true},
		{"Timing.Ts past 2^62 slots", func(c *SimConfig) { c.Timing.Ts = 1e300 }, false, false, true},
		{"Timing.Tc NaN", func(c *SimConfig) { c.Timing.Tc = nan }, false, false, true},
		{"Timing.Tc +Inf", func(c *SimConfig) { c.Timing.Tc = inf }, false, false, true},
		{"Timing.Tc past 2^62 slots", func(c *SimConfig) { c.Timing.Tc = 1e300 }, false, false, true},
		{"Gain NaN", func(c *SimConfig) { c.Gain = nan }, false, false, true},
		{"Gain +Inf", func(c *SimConfig) { c.Gain = inf }, false, false, true},
		{"Gain negative", func(c *SimConfig) { c.Gain = -1 }, false, false, true},
		{"Cost NaN", func(c *SimConfig) { c.Cost = nan }, false, false, true},
		{"Cost +Inf", func(c *SimConfig) { c.Cost = inf }, false, false, true},
		{"Cost -Inf", func(c *SimConfig) { c.Cost = -inf }, false, false, true},
		{"Cost negative", func(c *SimConfig) { c.Cost = -1 }, false, false, true},
		{"MobilityEvery NaN", func(c *SimConfig) { c.MobilityEvery = nan }, false, true, true},
		{"MobilityEvery +Inf", func(c *SimConfig) { c.MobilityEvery = inf }, false, true, true},
		{"MobilityEvery negative", func(c *SimConfig) { c.MobilityEvery = -1 }, false, true, true},
		{"MobilityEvery past 2^62 slots", func(c *SimConfig) { c.MobilityEvery = 1e300 }, false, true, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			newCfg := func() SimConfig {
				cfg := DefaultSimConfig(1e5, 1)
				cfg.CW = backoff.Uniform(32, 3)
				tt.mutate(&cfg)
				return cfg
			}
			net := func() *topology.Network { return cliqueNetwork(t, 3) }
			mobile := newCfg().MobilityEvery > 0
			type entry struct {
				call     func() error
				sentinel error
			}
			entries := map[string]entry{
				"Simulate": {func() error {
					_, err := Simulate(net(), newCfg())
					return err
				}, ErrInvalidSimConfig},
				"SimulateReference": {func() error {
					_, err := SimulateReference(net(), newCfg())
					return err
				}, ErrInvalidSimConfig},
			}
			// The reusable simulator rejects mobility by design, so the
			// valid mobile baseline only runs through the one-shot entries.
			if !(mobile && !tt.wantFail) {
				entries["NewSimulator"] = entry{func() error {
					_, err := NewSimulator(net(), newCfg())
					return err
				}, ErrInvalidSimConfig}
			}
			if !tt.cwOnly {
				entries["NewEngine"] = entry{func() error {
					strategies := []core.Strategy{core.Constant{W: 32}, core.Constant{W: 32}, core.Constant{W: 32}}
					_, err := NewEngine(net(), strategies, newCfg())
					return err
				}, ErrInvalidSimConfig}
			}
			if !tt.spatial {
				single := func() macsim.Config { return macsim.Config{Run: newCfg().Run} }
				entries["macsim.Validate"] = entry{func() error { return single().Validate() }, macsim.ErrInvalidConfig}
				entries["macsim.Run"] = entry{func() error {
					_, err := macsim.Run(single())
					return err
				}, macsim.ErrInvalidConfig}
				entries["macsim.RunReference"] = entry{func() error {
					_, err := macsim.RunReference(single())
					return err
				}, macsim.ErrInvalidConfig}
				entries["macsim.NewEngine"] = entry{func() error {
					_, err := macsim.NewEngine(single())
					return err
				}, macsim.ErrInvalidConfig}
			}
			for name, e := range entries {
				err := e.call()
				if !tt.wantFail {
					if err != nil {
						t.Errorf("%s rejected a valid config: %v", name, err)
					}
					continue
				}
				if !errors.Is(err, e.sentinel) {
					t.Errorf("%s: got %v, want an error wrapping %v", name, err, e.sentinel)
				}
			}
		})
	}
}

// The validators run on every Simulate, Run and engine construction, so
// on a valid config they allocate nothing.
func TestValidateAllocatesNothing(t *testing.T) {
	cfg := DefaultSimConfig(1e6, 1)
	cfg.CW = backoff.Uniform(32, 10)
	cfg.MobilityEvery = 1e5
	single := macsim.Config{Run: cfg.Run}
	for name, validate := range map[string]func() error{
		"backoff.Run":        cfg.Run.Validate,
		"macsim.Config":      single.Validate,
		"multihop.SimConfig": func() error { return cfg.Validate(10) },
	} {
		if err := validate(); err != nil {
			t.Fatalf("%s rejected a valid config: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = validate() }); allocs != 0 {
			t.Errorf("%s.Validate allocates %g times per call, want 0", name, allocs)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	nw1 := paperNetwork(t, 3)
	nw2 := paperNetwork(t, 3)
	cfg := DefaultSimConfig(2e6, 9)
	cfg.CW = backoff.Uniform(32, nw1.N())
	a, err := Simulate(nw1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(nw2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d stats diverged between identical runs", i)
		}
	}
}

// On a clique (everyone in range) there are no hidden terminals and the
// spatial simulator must agree with the single-hop analytic model.
func TestCliqueMatchesSingleHop(t *testing.T) {
	const n, w = 10, 64
	nw := cliqueNetwork(t, n)
	cfg := DefaultSimConfig(60e6, 11)
	cfg.CW = backoff.Uniform(w, n)
	res, err := Simulate(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HiddenFraction != 0 {
		t.Errorf("clique produced hidden-terminal losses: %g", res.HiddenFraction)
	}
	// Compare per-node success *rate* against the analytic model. The
	// slot-synchronous spatial simulator quantizes Ts/Tc to whole slots,
	// so allow a coarser tolerance than the single-hop event simulator.
	model, err := bianchi.New(cfg.Timing, cfg.MaxStage)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.SolveUniform(w, n)
	if err != nil {
		t.Fatal(err)
	}
	wantSuccessRate := sol.SuccessRate(0) / sol.Tslot // successes per µs
	var gotRate float64
	for _, nd := range res.Nodes {
		gotRate += float64(nd.Successes)
	}
	gotRate /= float64(n) * res.Time
	if rel := stats.RelErr(gotRate, wantSuccessRate); rel > 0.12 {
		t.Errorf("clique success rate %g vs analytic %g (rel %.3f)", gotRate, wantSuccessRate, rel)
	}
}

// The clique spatial simulator must also track the event-driven macsim.
func TestCliqueMatchesMacsim(t *testing.T) {
	const n, w = 8, 48
	nw := cliqueNetwork(t, n)
	cfg := DefaultSimConfig(60e6, 13)
	cfg.CW = backoff.Uniform(w, n)
	spatial, err := Simulate(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := macsim.Run(macsim.Config{Run: cfg.Run}) // the same run, seed 13
	if err != nil {
		t.Fatal(err)
	}
	var spatialPayoff, evPayoff float64
	for i := 0; i < n; i++ {
		spatialPayoff += spatial.Nodes[i].PayoffRate
		evPayoff += ev.Nodes[i].PayoffRate
	}
	if rel := stats.RelErr(spatialPayoff, evPayoff); rel > 0.15 {
		t.Errorf("spatial clique payoff %g vs macsim %g (rel %.3f)", spatialPayoff, evPayoff, rel)
	}
}

// cliqueGraph is the n-node complete graph: every node hears every
// other, so the spatial engine runs one collision domain.
func cliqueGraph(n int) *fixedGraph {
	adj := make([][]int, n)
	for i := range adj {
		for j := 0; j < n; j++ {
			if j != i {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return &fixedGraph{adj: adj}
}

// The clique rung of the agreement ladder (Bianchi ↔ macsim ↔
// multihop clique ↔ multihop spatial): on a clique the spatial engine
// and macsim model the same single collision domain, so at every
// paper cell — n ∈ {5, 20, 50}, W ∈ {¼, ½, 1, 2, 4}·Wc* with Wc* from
// Tables II/III — their global payoffs must agree within 3% over 60 s.
// Under basic access the payoff peaks sharply enough that both models'
// argmax over the W grid must also agree (both peak at Wc* for every n
// and seed here). Both engines run Gain 1 and Cost 0.01. Under RTS/CTS
// the curve is flatter around Wc* than one run's noise, and the argmaxes
// disagreed in 3 of the 9 (n, seed) cases, so that mode checks the
// payoff gap only. Each (mode, n, W) cell is its own subtest, so a
// failure names the cell.
func TestCliqueLadderMatchesMacsim(t *testing.T) {
	wcStar := map[phy.AccessMode]map[int]int{
		phy.Basic:  {5: 76, 20: 336, 50: 879},
		phy.RTSCTS: {5: 22, 20: 48, 50: 116},
	}
	scales := []struct{ num, den int }{{1, 4}, {1, 2}, {1, 1}, {2, 1}, {4, 1}}
	seeds := []uint64{7, 8, 9}
	for _, mode := range []struct {
		name string
		mode phy.AccessMode
	}{{"basic", phy.Basic}, {"rtscts", phy.RTSCTS}} {
		t.Run(mode.name, func(t *testing.T) {
			for _, n := range []int{5, 20, 50} {
				t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
					clique := cliqueGraph(n)
					// spatial[s][k] and single[s][k]: seed s, W scale k.
					spatial := make([][]float64, len(seeds))
					single := make([][]float64, len(seeds))
					for s := range seeds {
						spatial[s] = make([]float64, len(scales))
						single[s] = make([]float64, len(scales))
					}
					for k, sc := range scales {
						w := wcStar[mode.mode][n] * sc.num / sc.den
						t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
							for s, seed := range seeds {
								cfg := simCfg(mode.mode, backoff.Uniform(w, n), 60e6, seed)
								cfg.Cost = 0.01
								mh, err := Simulate(clique, cfg)
								if err != nil {
									t.Fatal(err)
								}
								ms, err := macsim.Run(macsim.Config{Run: cfg.Run})
								if err != nil {
									t.Fatal(err)
								}
								spatial[s][k] = mh.GlobalPayoffRate()
								single[s][k] = ms.GlobalPayoffRate()
								if rel := stats.RelErr(spatial[s][k], single[s][k]); rel > 0.03 {
									t.Errorf("seed %d: clique payoff %g vs macsim %g (rel %.4f)",
										seed, spatial[s][k], single[s][k], rel)
								}
							}
						})
					}
					if mode.mode != phy.Basic {
						return
					}
					argmax := func(rates []float64) int { return slices.Index(rates, slices.Max(rates)) }
					for s, seed := range seeds {
						if a, b := argmax(spatial[s]), argmax(single[s]); a != b {
							t.Errorf("seed %d: clique peaks at %d·Wc*/%d, macsim at %d·Wc*/%d", seed,
								scales[a].num, scales[a].den, scales[b].num, scales[b].den)
						}
					}
				})
			}
		})
	}
}

// A hidden-terminal chain must actually produce hidden losses.
func TestHiddenTerminalsDetected(t *testing.T) {
	nw, err := topology.New(topology.Config{N: 3, Width: 500, Height: 10, Range: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Force a line: 0 - 1 - 2 with 0 and 2 mutually hidden. Positions are
	// private; rebuild via a custom config where random placement is
	// replaced by mobility-free snap. Use reflection-free approach: brute
	// force seeds until the desired structure appears would be flaky, so
	// instead construct a 3-node clique-breaker with explicit geometry by
	// searching a few seeds.
	found := false
	for seed := uint64(1); seed < 200 && !found; seed++ {
		cand, err := topology.New(topology.Config{N: 3, Width: 400, Height: 40, Range: 150, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// A line has one middle node of degree 2 and two ends of degree 1.
		rows := cand.Rows()
		if len(rows[0])+len(rows[1])+len(rows[2]) == 4 {
			nw, found = cand, true
		}
	}
	if !found {
		t.Fatal("no line topology found in seed search")
	}
	cfg := DefaultSimConfig(30e6, 2)
	cfg.CW = backoff.Uniform(16, 3)
	res, err := Simulate(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HiddenFraction == 0 {
		t.Error("line topology produced no hidden-terminal losses")
	}
}

func TestIsolatedNodeNeverTransmits(t *testing.T) {
	// Two nodes far out of range: no receivers, no transmissions.
	nw, err := topology.New(topology.Config{N: 2, Width: 10000, Height: 10, Range: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Rows()[0]) > 0 {
		t.Fatal("random placement made the nodes neighbors")
	}
	cfg := DefaultSimConfig(5e6, 3)
	cfg.CW = backoff.Uniform(16, 2)
	res, err := Simulate(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range res.Nodes {
		if nd.Attempts != 0 {
			t.Errorf("isolated node %d transmitted %d times", i, nd.Attempts)
		}
	}
}

func TestLocalCWSelector(t *testing.T) {
	sel, err := NewLocalCWSelector(core.DefaultConfig(2, phy.RTSCTS))
	if err != nil {
		t.Fatal(err)
	}
	w5, err := sel.CWFor(5)
	if err != nil {
		t.Fatal(err)
	}
	w20, err := sel.CWFor(20)
	if err != nil {
		t.Fatal(err)
	}
	if w5 >= w20 {
		t.Errorf("local CW not increasing in neighborhood size: %d vs %d", w5, w20)
	}
	// Paper Table III anchor: 20-player RTS/CTS local game → ~48.
	if math.Abs(float64(w20-48)) > 4 {
		t.Errorf("CWFor(20) = %d, want ~48", w20)
	}
	// Isolated nodes fall back to the 2-player game.
	w1, err := sel.CWFor(1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := sel.CWFor(2)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Errorf("CWFor(1) = %d != CWFor(2) = %d", w1, w2)
	}
	// Cache must return identical values.
	again, err := sel.CWFor(20)
	if err != nil || again != w20 {
		t.Errorf("cache miss: %d vs %d (%v)", again, w20, err)
	}
}

func TestLocalCWProfileAndConvergedCW(t *testing.T) {
	nw := paperNetwork(t, 8)
	sel, err := NewLocalCWSelector(core.DefaultConfig(2, phy.RTSCTS))
	if err != nil {
		t.Fatal(err)
	}
	profile, err := LocalCWProfile(nw, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) != nw.N() {
		t.Fatalf("profile length %d != %d", len(profile), nw.N())
	}
	wm := ConvergedCW(profile)
	for i, w := range profile {
		if w < wm {
			t.Fatalf("node %d CW %d below converged min %d", i, w, wm)
		}
	}
	// Wm corresponds to the node with the smallest neighborhood.
	minDeg := nw.N()
	for _, row := range nw.Rows() {
		minDeg = min(minDeg, len(row))
	}
	wantWm, err := sel.CWFor(minDeg + 1)
	if err != nil {
		t.Fatal(err)
	}
	if wm != wantWm {
		t.Errorf("Wm = %d, want %d (min degree %d)", wm, wantWm, minDeg)
	}
}

func TestConvergedCWPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty profile")
		}
	}()
	ConvergedCW(nil)
}

func TestTFTConvergeOnLine(t *testing.T) {
	// Path graph 0-1-2-3-4, min at the far end: needs diameter stages.
	adj := [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}
	w0 := []int{100, 90, 80, 70, 10}
	final, stages, converged := TFTConverge(adj, w0, 100)
	if !converged {
		t.Fatal("did not converge")
	}
	for i, w := range final {
		if w != 10 {
			t.Fatalf("node %d final CW %d, want 10", i, w)
		}
	}
	if stages < 4 || stages > 6 {
		t.Errorf("stages = %d, expected about the diameter (4)", stages)
	}
}

func TestTFTConvergeDisconnected(t *testing.T) {
	// Two components converge to their own minima.
	adj := [][]int{{1}, {0}, {3}, {2}}
	w0 := []int{50, 20, 80, 60}
	final, _, converged := TFTConverge(adj, w0, 100)
	if !converged {
		t.Fatal("did not converge")
	}
	want := []int{20, 20, 60, 60}
	for i := range want {
		if final[i] != want[i] {
			t.Fatalf("final = %v, want %v", final, want)
		}
	}
}

func TestTFTConvergeRespectsMaxStages(t *testing.T) {
	adj := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	w0 := []int{40, 30, 20, 10}
	_, stages, converged := TFTConverge(adj, w0, 1)
	if converged || stages != 1 {
		t.Fatalf("converged=%v stages=%d, want false, 1", converged, stages)
	}
}

func TestTFTConvergeOnPaperNetwork(t *testing.T) {
	nw := paperNetwork(t, 10)
	sel, err := NewLocalCWSelector(core.DefaultConfig(2, phy.RTSCTS))
	if err != nil {
		t.Fatal(err)
	}
	w0, err := LocalCWProfile(nw, sel)
	if err != nil {
		t.Fatal(err)
	}
	final, _, converged := TFTConverge(nw.Rows(), w0, 1000)
	if !converged {
		t.Fatal("paper network TFT did not converge")
	}
	if nw.Connected() {
		wm := ConvergedCW(w0)
		for i, w := range final {
			if w != wm {
				t.Fatalf("connected network: node %d at %d, want uniform %d", i, w, wm)
			}
		}
	}
}

func TestLocalUniformUtility(t *testing.T) {
	p := phy.Default()
	model, err := bianchi.New(p.MustTiming(phy.RTSCTS), p.MaxBackoffStage)
	if err != nil {
		t.Fatal(err)
	}
	// phn = 1 must reproduce the single-hop utility.
	u1, err := LocalUniformUtility(model, 10, 48, 1, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.SolveUniform(48, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := sol.Tau[0] * ((1-sol.P[0])*1 - 0.01) / sol.Tslot
	if math.Abs(u1-want) > 1e-18 {
		t.Errorf("phn=1 utility %g != single-hop %g", u1, want)
	}
	// Degradation must reduce utility.
	u08, err := LocalUniformUtility(model, 10, 48, 0.8, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if u08 >= u1 {
		t.Errorf("phn=0.8 utility %g not below phn=1 %g", u08, u1)
	}
	if _, err := LocalUniformUtility(model, 0, 48, 1, 1, 0.01); err == nil {
		t.Error("nPlayers=0 accepted")
	}
}

func TestSweepCWs(t *testing.T) {
	got := sweepCWs(20, []float64{0.5, 1.0, 2.0, 0.01})
	want := []int{1, 10, 20, 40}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", got, want)
		}
	}
}

// Small-scale end-to-end quasi-optimality: on a modest random network the
// converged NE must deliver a large fraction of both the local and global
// optimum across common-CW operating points (the paper reports >= 96%
// local and >= 97% global on its larger scenario).
func TestQuasiOptimalitySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	// Paper-like density: 25 nodes at the Section VII.B node density
	// (1e-4 nodes/m^2), 250 m range.
	nw, err := topology.New(topology.Config{
		N: 25, Width: 500, Height: 500, Range: 250, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewLocalCWSelector(core.DefaultConfig(2, phy.RTSCTS))
	if err != nil {
		t.Fatal(err)
	}
	profile, err := LocalCWProfile(nw, sel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuasiOptConfig{
		Sim:              DefaultSimConfig(10e6, 5),
		Wm:               ConvergedCW(profile),
		SweepMultipliers: []float64{0.5, 0.75, 1.5, 2, 3},
		Schedule:         replicate.Schedule{MaxReps: 3},
	}
	res, err := MeasureQuasiOptimality(context.Background(), nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalRatio < 0.85 {
		t.Errorf("global ratio %.3f too far from optimal", res.GlobalRatio)
	}
	// Spatial unfairness makes per-node curves much noisier than the
	// global one at this small scale; the paper-scale experiment (100
	// nodes, long runs) is exercised by cmd/experiments.
	if res.MeanPerNodeRatio < 0.70 {
		t.Errorf("mean per-node ratio %.3f too far from optimal", res.MeanPerNodeRatio)
	}
	if res.MinPerNodeRatio <= 0 {
		t.Errorf("min per-node ratio %.3f non-positive", res.MinPerNodeRatio)
	}
	for _, r := range res.PerNodeRatio {
		if r > 1+1e-9 {
			t.Errorf("per-node ratio %g above 1", r)
		}
	}
	if len(res.SweptCWs) < 5 {
		t.Errorf("sweep evaluated only %v", res.SweptCWs)
	}
	cfg.Sim.MobilityEvery = 1e5
	if _, err := MeasureQuasiOptimality(context.Background(), nw, cfg); !errors.Is(err, ErrInvalidSimConfig) {
		t.Errorf("mobile quasi-optimality: got %v, want an error wrapping ErrInvalidSimConfig", err)
	}
}

// The replication schedule goes to the replication layer unclamped: a
// sweep with no replications is a rejected plan, not a silent single run.
func TestQuasiOptimalityRejectsBadSchedule(t *testing.T) {
	_, err := MeasureQuasiOptimality(context.Background(), cliqueNetwork(t, 4), QuasiOptConfig{
		Sim:              DefaultSimConfig(1e5, 1),
		Wm:               16,
		SweepMultipliers: []float64{2},
	})
	if !errors.Is(err, replicate.ErrInvalidPlan) {
		t.Fatalf("MaxReps 0: got %v, want an error wrapping replicate.ErrInvalidPlan", err)
	}
}

func TestPHNSweep(t *testing.T) {
	nw := paperNetwork(t, 12)
	sim := DefaultSimConfig(2e6, 21)
	fracs, err := PHNSweep(context.Background(), nw, sim, []int{16, 32, 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fracs) != 3 {
		t.Fatalf("got %d fractions", len(fracs))
	}
	for i, f := range fracs {
		if f < 0 || f > 1 {
			t.Errorf("fraction %d = %g outside [0,1]", i, f)
		}
	}
	if _, err := PHNSweep(context.Background(), nw, sim, nil, 0); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := PHNSweep(context.Background(), nw, sim, []int{0}, 0); err == nil {
		t.Error("CW 0 accepted")
	}
	sim.MobilityEvery = 1e5
	if _, err := PHNSweep(context.Background(), nw, sim, []int{16}, 0); !errors.Is(err, ErrInvalidSimConfig) {
		t.Errorf("mobile p_hn sweep: got %v, want an error wrapping ErrInvalidSimConfig", err)
	}
}

// A sweep over a network that moved since its adjacency view was built
// sends every worker into the view's first resync at once: the sweep
// must equal a serial one on a twin network (and `go test -race` checks
// the resync is synchronised).
func TestPHNSweepStaleNetworkConcurrentReaders(t *testing.T) {
	sweep := func(workers int) []float64 {
		nw := paperNetwork(t, 14)
		nw.AdjacencyView().Rows()
		if err := nw.Step(30); err != nil {
			t.Fatal(err)
		}
		fracs, err := PHNSweep(context.Background(), nw, DefaultSimConfig(5e5, 3), []int{16, 32, 64, 128}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return fracs
	}
	if serial, parallel := sweep(1), sweep(2); !reflect.DeepEqual(parallel, serial) {
		t.Fatalf("2-worker sweep %v diverged from serial %v", parallel, serial)
	}
}

// Simulate builds its state per call and caches nothing a GC could
// clear, so on twin mobile networks the same sequence of calls
// allocates the same count call for call, with or without collections
// between the calls. Each count is taken over one call on each of
// `twins` identical networks and divided by twins, so a stray runtime
// allocation during the measurement truncates away.
func TestSimulateAllocsIndependentOfGC(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const twins = 10
	cfg := DefaultSimConfig(1e6, 5)
	cfg.CW = backoff.Uniform(32, 100)
	cfg.MobilityEvery = 1e5
	calls := func(gc bool) []uint64 {
		nets := make([]*topology.Network, twins)
		simulateAll := func() {
			for _, nw := range nets {
				if _, err := Simulate(nw, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := range nets {
			nets[i] = paperNetwork(t, 9)
		}
		simulateAll() // warm: each network's adjacency view is built
		var out []uint64
		for k := 0; k < 5; k++ {
			if gc {
				runtime.GC() // twice, so no object survives in a GC victim cache
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			simulateAll()
			runtime.ReadMemStats(&after)
			out = append(out, (after.Mallocs-before.Mallocs)/twins)
		}
		return out
	}
	if plain, collected := calls(false), calls(true); !reflect.DeepEqual(plain, collected) {
		t.Fatalf("allocations per call depend on GC: %v without, %v with collections", plain, collected)
	}
}

// TestSimulatePreparedStepsDeterministic pins the engine's mobility
// pipeline: each step is prepared on a second goroutine while the
// engine simulates the slots before it. On twin mobile networks, under
// full churn (every step a bulk refill) and pauses (patches), Simulate
// and mobile Engine stages at GOMAXPROCS 1 and 2 must give identical
// results and leave identical networks, and no goroutine may outlive a
// call.
func TestSimulatePreparedStepsDeterministic(t *testing.T) {
	cases := []struct {
		name string
		cfg  topology.Config
	}{
		{"churn", topology.Config{N: 300, Width: 1700, Height: 1700, Range: 250, MaxSpeed: 5, Seed: 61}},
		{"paused", topology.Config{N: 300, Width: 1700, Height: 1700, Range: 250, MinSpeed: 5, MaxSpeed: 20, Pause: 120, Seed: 61}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				runs  []*SimResult
				trace *core.Trace
				nw    *topology.Network
			}
			play := func(procs int) outcome {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				base := runtime.NumGoroutine()
				nw, err := topology.New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for range 50 {
					if err := nw.Step(20); err != nil {
						t.Fatal(err)
					}
				}
				before := nw.AdjacencyInto(nil)
				var out outcome
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := DefaultSimConfig(1e6, seed)
					cfg.CW = backoff.Uniform(26, tc.cfg.N)
					cfg.MobilityEvery = 5e4
					res, err := Simulate(nw, cfg)
					if err != nil {
						t.Fatal(err)
					}
					settleGoroutines(t, base)
					out.runs = append(out.runs, res)
				}
				strategies := make([]core.Strategy, tc.cfg.N)
				for i := range strategies {
					strategies[i] = core.GTFT{Initial: 16 + (i*37)%240, R0: 2, Beta: 0.9}
				}
				sim := stageSim(2e5)
				sim.MobilityEvery = 5e4
				eng, err := NewEngine(nw, strategies, sim)
				if err != nil {
					t.Fatal(err)
				}
				if out.trace, err = eng.Run(4); err != nil {
					t.Fatal(err)
				}
				settleGoroutines(t, base)
				if reflect.DeepEqual(nw.AdjacencyInto(nil), before) {
					t.Fatal("no link changed: the case does not exercise mobility")
				}
				out.nw = nw
				return out
			}
			one, two := play(1), play(2)
			if !reflect.DeepEqual(one.runs, two.runs) {
				t.Fatal("Simulate results differ between GOMAXPROCS 1 and 2")
			}
			if !reflect.DeepEqual(one.trace, two.trace) {
				t.Fatal("mobile Engine traces differ between GOMAXPROCS 1 and 2")
			}
			if !reflect.DeepEqual(one.nw, two.nw) {
				t.Fatal("networks differ between GOMAXPROCS 1 and 2")
			}
		})
	}
}

// settleGoroutines fails unless the goroutine count falls back to base.
// A prepare goroutine sends its result before it exits, so the count is
// polled for a moment; a goroutine left running fails.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for range 1000 {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), base)
}

func TestMobilityDuringSimulation(t *testing.T) {
	nw := paperNetwork(t, 31)
	before := nw.Positions()
	cfg := DefaultSimConfig(3e6, 7)
	cfg.CW = backoff.Uniform(32, nw.N())
	cfg.MobilityEvery = 1e6 // re-snapshot every simulated second
	if _, err := Simulate(nw, cfg); err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, p := range nw.Positions() {
		if p != before[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("mobility enabled but no node moved")
	}
}

func BenchmarkSimulatePaperNetwork(b *testing.B) {
	nw := paperNetwork(b, 3)
	cfg := DefaultSimConfig(1e6, 1)
	cfg.CW = backoff.Uniform(26, nw.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(nw, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
