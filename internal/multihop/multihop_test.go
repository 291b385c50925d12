package multihop

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"selfishmac/internal/bianchi"
	"selfishmac/internal/core"
	"selfishmac/internal/macsim"
	"selfishmac/internal/phy"
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

func uniformCW(w, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = w
	}
	return out
}

func TestSimulateValidation(t *testing.T) {
	nw := cliqueNetwork(t, 3)
	cfg := DefaultSimConfig(1e6, 1)
	cfg.CW = uniformCW(32, 2) // wrong length
	if _, err := Simulate(nw, cfg); err == nil {
		t.Error("wrong-length profile accepted")
	}
	cfg.CW = uniformCW(0, 3)
	if _, err := Simulate(nw, cfg); err == nil {
		t.Error("CW 0 accepted")
	}
	cfg.CW = uniformCW(32, 3)
	cfg.Duration = 0
	if _, err := Simulate(nw, cfg); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestSimConfigValidate is the config surface's table: every invalid
// field — non-finite floats included, which ordered comparisons let
// through — is rejected by every entry point with an error wrapping
// ErrInvalidSimConfig, and the valid baseline is accepted by all of them.
func TestSimConfigValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name     string
		mutate   func(*SimConfig)
		cwOnly   bool // NewEngine ignores CW, so it cannot reject it
		wantFail bool
	}{
		{"valid", func(*SimConfig) {}, false, false},
		{"valid mobility", func(c *SimConfig) { c.MobilityEvery = 1e5 }, false, false},
		{"CW wrong length", func(c *SimConfig) { c.CW = c.CW[:2] }, true, true},
		{"CW zero", func(c *SimConfig) { c.CW[1] = 0 }, true, true},
		{"MaxStage negative", func(c *SimConfig) { c.MaxStage = -1 }, false, true},
		{"MaxStage too large", func(c *SimConfig) { c.MaxStage = 17 }, false, true},
		{"Duration zero", func(c *SimConfig) { c.Duration = 0 }, false, true},
		{"Duration NaN", func(c *SimConfig) { c.Duration = nan }, false, true},
		{"Duration +Inf", func(c *SimConfig) { c.Duration = inf }, false, true},
		{"Timing.Slot NaN", func(c *SimConfig) { c.Timing.Slot = nan }, false, true},
		{"Timing.Slot +Inf", func(c *SimConfig) { c.Timing.Slot = inf }, false, true},
		{"Timing.Ts NaN", func(c *SimConfig) { c.Timing.Ts = nan }, false, true},
		{"Timing.Ts zero", func(c *SimConfig) { c.Timing.Ts = 0 }, false, true},
		{"Timing.Tc NaN", func(c *SimConfig) { c.Timing.Tc = nan }, false, true},
		{"Timing.Tc +Inf", func(c *SimConfig) { c.Timing.Tc = inf }, false, true},
		{"Gain NaN", func(c *SimConfig) { c.Gain = nan }, false, true},
		{"Gain +Inf", func(c *SimConfig) { c.Gain = inf }, false, true},
		{"Gain negative", func(c *SimConfig) { c.Gain = -1 }, false, true},
		{"Cost NaN", func(c *SimConfig) { c.Cost = nan }, false, true},
		{"Cost +Inf", func(c *SimConfig) { c.Cost = inf }, false, true},
		{"MobilityEvery NaN", func(c *SimConfig) { c.MobilityEvery = nan }, false, true},
		{"MobilityEvery +Inf", func(c *SimConfig) { c.MobilityEvery = inf }, false, true},
		{"MobilityEvery negative", func(c *SimConfig) { c.MobilityEvery = -1 }, false, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			newCfg := func() SimConfig {
				cfg := DefaultSimConfig(1e5, 1)
				cfg.CW = uniformCW(32, 3)
				tt.mutate(&cfg)
				return cfg
			}
			net := func() *topology.Network { return cliqueNetwork(t, 3) }
			mobile := newCfg().MobilityEvery > 0
			entries := map[string]func() error{
				"Simulate": func() error {
					_, err := Simulate(net(), newCfg())
					return err
				},
				"SimulateReference": func() error {
					_, err := SimulateReference(net(), newCfg())
					return err
				},
			}
			// The reusable simulator rejects mobility by design, so the
			// valid mobile baseline only runs through the one-shot entries.
			if !(mobile && !tt.wantFail) {
				entries["NewSimulator"] = func() error {
					_, err := NewSimulator(net(), newCfg())
					return err
				}
			}
			if !tt.cwOnly {
				entries["NewEngine"] = func() error {
					strategies := []core.Strategy{core.Constant{W: 32}, core.Constant{W: 32}, core.Constant{W: 32}}
					_, err := NewEngine(net(), strategies, newCfg())
					return err
				}
			}
			for name, call := range entries {
				err := call()
				if !tt.wantFail {
					if err != nil {
						t.Errorf("%s rejected a valid config: %v", name, err)
					}
					continue
				}
				if !errors.Is(err, ErrInvalidSimConfig) {
					t.Errorf("%s: got %v, want an error wrapping ErrInvalidSimConfig", name, err)
				}
			}
		})
	}
}

func TestSimulateDeterministic(t *testing.T) {
	nw1 := paperNetwork(t, 3)
	nw2 := paperNetwork(t, 3)
	cfg := DefaultSimConfig(2e6, 9)
	cfg.CW = uniformCW(32, nw1.N())
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
	cfg.CW = uniformCW(w, n)
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
	cfg.CW = uniformCW(w, n)
	spatial, err := Simulate(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := macsim.RunUniform(cfg.Timing, cfg.MaxStage, w, n, cfg.Duration, cfg.Gain, cfg.Cost, 13)
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
		if cand.IsLink(0, 1) && cand.IsLink(1, 2) && !cand.IsLink(0, 2) {
			nw, found = cand, true
		} else if cand.IsLink(0, 2) && cand.IsLink(2, 1) && !cand.IsLink(0, 1) {
			nw, found = cand, true
		} else if cand.IsLink(1, 0) && cand.IsLink(0, 2) && !cand.IsLink(1, 2) {
			nw, found = cand, true
		}
	}
	if !found {
		t.Skip("no line topology found in seed search")
	}
	cfg := DefaultSimConfig(30e6, 2)
	cfg.CW = uniformCW(16, 3)
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
	if nw.IsLink(0, 1) {
		t.Skip("random placement made the nodes neighbors")
	}
	cfg := DefaultSimConfig(5e6, 3)
	cfg.CW = uniformCW(16, 2)
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
	minDeg := nw.Degree(0)
	for i := 1; i < nw.N(); i++ {
		if d := nw.Degree(i); d < minDeg {
			minDeg = d
		}
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
	adj := nw.AdjacencyLists()
	final, _, converged := TFTConverge(adj, w0, 1000)
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
		Replicas:         3,
	}
	res, err := MeasureQuasiOptimality(nw, cfg)
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
	if _, err := MeasureQuasiOptimality(nw, cfg); !errors.Is(err, ErrInvalidSimConfig) {
		t.Errorf("mobile quasi-optimality: got %v, want an error wrapping ErrInvalidSimConfig", err)
	}
}

func TestPHNSweep(t *testing.T) {
	nw := paperNetwork(t, 12)
	sim := DefaultSimConfig(2e6, 21)
	fracs, err := PHNSweep(nw, sim, []int{16, 32, 64}, 0)
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
	if _, err := PHNSweep(nw, sim, nil, 0); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := PHNSweep(nw, sim, []int{0}, 0); err == nil {
		t.Error("CW 0 accepted")
	}
	sim.MobilityEvery = 1e5
	if _, err := PHNSweep(nw, sim, []int{16}, 0); !errors.Is(err, ErrInvalidSimConfig) {
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
		fracs, err := PHNSweepContext(context.Background(), nw, DefaultSimConfig(5e5, 3), []int{16, 32, 64, 128}, workers)
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
	cfg.CW = uniformCW(32, 100)
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

func TestMobilityDuringSimulation(t *testing.T) {
	nw := paperNetwork(t, 31)
	before := nw.Positions()
	cfg := DefaultSimConfig(3e6, 7)
	cfg.CW = uniformCW(32, nw.N())
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
	cfg.CW = uniformCW(26, nw.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(nw, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
