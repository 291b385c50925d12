package multihop

import (
	"reflect"
	"slices"
	"testing"

	"selfishmac/internal/core"
	"selfishmac/internal/rng"
	"selfishmac/internal/topology"
)

// fixedGraph is a deterministic Topology for engine tests. Its rows
// must be ascending, as the Topology contract requires.
type fixedGraph struct {
	adj [][]int
}

func (g *fixedGraph) N() int        { return len(g.adj) }
func (g *fixedGraph) Rows() [][]int { return g.adj }

var _ Topology = (*fixedGraph)(nil)

// line5 is the path graph 0-1-2-3-4.
func line5() *fixedGraph {
	return &fixedGraph{adj: [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}}
}

func tftStrategies(w0 []int) []core.Strategy {
	out := make([]core.Strategy, len(w0))
	for i, w := range w0 {
		out[i] = core.TFT{Initial: w}
	}
	return out
}

func stageSim(duration float64) SimConfig {
	cfg := DefaultSimConfig(duration, 13)
	return cfg
}

func TestEngineValidation(t *testing.T) {
	g := line5()
	if _, err := NewEngine(nil, nil, stageSim(1e6)); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewEngine(g, tftStrategies([]int{1, 2}), stageSim(1e6)); err == nil {
		t.Error("strategy-count mismatch accepted")
	}
	strats := tftStrategies([]int{10, 10, 10, 10, 10})
	strats[2] = nil
	if _, err := NewEngine(g, strats, stageSim(1e6)); err == nil {
		t.Error("nil strategy accepted")
	}
	bad := stageSim(0)
	if _, err := NewEngine(g, tftStrategies([]int{10, 10, 10, 10, 10}), bad); err == nil {
		t.Error("zero-duration stage accepted")
	}
	eng, err := NewEngine(g, tftStrategies([]int{10, 10, 10, 10, 10}), stageSim(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err == nil {
		t.Error("Run(0) accepted")
	}
}

// Theorem 3 as a dynamic: local TFT on a path graph converges to the
// global minimum CW within the diameter, with the minimum travelling
// hop by hop.
func TestTheorem3Dynamic(t *testing.T) {
	g := line5()
	w0 := []int{100, 90, 80, 70, 12} // minimum at the far end
	eng, err := NewEngine(g, tftStrategies(w0), stageSim(1e6))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConvergedCW != 12 {
		t.Fatalf("converged to %d, want the global minimum 12", tr.ConvergedCW)
	}
	// Propagation is hop-by-hop: after stage k the minimum has reached
	// nodes within k hops of node 4.
	if got := tr.Stages[1].Profile; got[3] != 12 || got[0] == 12 {
		t.Errorf("stage 1 profile %v: min should have reached node 3 only", got)
	}
	if got := tr.Stages[2].Profile; got[2] != 12 {
		t.Errorf("stage 2 profile %v: min should have reached node 2", got)
	}
	// Diameter of line5 is 4: convergence at stage 4.
	if tr.ConvergedAt > 4 {
		t.Errorf("converged at stage %d, want <= diameter 4", tr.ConvergedAt)
	}
	// Dynamic result must agree with the static graph iteration.
	static, _, ok := TFTConverge(g.adj, w0, 100)
	if !ok {
		t.Fatal("static iteration did not converge")
	}
	final := tr.FinalProfile()
	for i := range final {
		if final[i] != static[i] {
			t.Fatalf("dynamic final %v != static %v", final, static)
		}
	}
}

// A malicious node pinned low drags the entire connected network down —
// Section V.E in the multi-hop setting.
func TestMultihopMaliciousSpreads(t *testing.T) {
	g := line5()
	strats := tftStrategies([]int{60, 60, 60, 60, 60})
	strats[0] = core.Constant{W: 6, Label: "malicious"}
	eng, err := NewEngine(g, strats, stageSim(1e6))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConvergedCW != 6 {
		t.Fatalf("network converged to %d, want the malicious 6", tr.ConvergedCW)
	}
}

func TestEngineRecordsPayoffs(t *testing.T) {
	g := line5()
	eng, err := NewEngine(g, tftStrategies([]int{30, 30, 30, 30, 30}), stageSim(3e6))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range tr.Stages {
		if len(st.UtilityRates) != 5 {
			t.Fatalf("stage %d has %d payoff entries", k, len(st.UtilityRates))
		}
		var positive int
		for _, u := range st.UtilityRates {
			if u > 0 {
				positive++
			}
		}
		if positive == 0 {
			t.Errorf("stage %d: nobody earned anything", k)
		}
	}
}

func TestEngineStopWindow(t *testing.T) {
	g := line5()
	eng, err := NewEngine(g, tftStrategies([]int{50, 50, 50, 50, 50}), stageSim(1e6))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.WithStopWindow(2).Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stages) != 2 {
		t.Fatalf("ran %d stages, want early stop at 2", len(tr.Stages))
	}
	if tr.ConvergedAt != 0 || tr.ConvergedCW != 50 {
		t.Fatalf("ConvergedAt=%d CW=%d", tr.ConvergedAt, tr.ConvergedCW)
	}
}

func TestEngineNonConvergence(t *testing.T) {
	g := line5()
	strats := []core.Strategy{
		core.Constant{W: 10}, core.Constant{W: 20}, core.Constant{W: 30},
		core.Constant{W: 40}, core.Constant{W: 50},
	}
	eng, err := NewEngine(g, strats, stageSim(1e6))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConvergedAt != -1 {
		t.Fatalf("heterogeneous constants reported convergence at %d", tr.ConvergedAt)
	}
}

// GTFT's tolerance also works on neighborhoods: a within-tolerance
// neighbor difference must not trigger a reaction.
func TestEngineGTFTLocalTolerance(t *testing.T) {
	g := &fixedGraph{adj: [][]int{{1}, {0}}}
	strats := []core.Strategy{
		core.GTFT{Initial: 100, R0: 2, Beta: 0.8},
		core.GTFT{Initial: 90, R0: 2, Beta: 0.8}, // within 0.8 tolerance
	}
	eng, err := NewEngine(g, strats, stageSim(1e6))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	final := tr.FinalProfile()
	if final[0] != 100 || final[1] != 90 {
		t.Fatalf("GTFT overreacted within tolerance: %v", final)
	}
}

// Simulate must reject mobility on an immobile topology.
func TestSimulateImmobileTopologyRejectsMobility(t *testing.T) {
	g := line5()
	cfg := stageSim(1e6)
	cfg.CW = []int{16, 16, 16, 16, 16}
	cfg.MobilityEvery = 1e5
	if _, err := Simulate(g, cfg); err == nil {
		t.Fatal("mobility accepted on a fixed graph")
	}
	cfg.MobilityEvery = 0
	if _, err := Simulate(g, cfg); err != nil {
		t.Fatalf("static simulation on a fixed graph failed: %v", err)
	}
}

// A mobile Engine.Run must record each stage's observations under the
// topology the stage started from, although the stage's Simulate steps
// the network — and its shared adjacency rows — in place. The trace is
// pinned against a hand-written loop that snapshots AdjacencyLists at
// every stage start and keeps the full observation history.
func TestEngineMobileTraceMatchesStageStartSnapshots(t *testing.T) {
	const n, stages = 60, 8
	net := func() *topology.Network {
		nw, err := topology.New(topology.Config{
			N: n, Width: 1000, Height: 1000, Range: 250, MinSpeed: 5, MaxSpeed: 20, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	strategies := make([]core.Strategy, n)
	for i := range strategies {
		strategies[i] = core.GTFT{Initial: 16 + (i*37)%240, R0: 2, Beta: 0.9}
	}
	sim := stageSim(1e6)
	sim.MobilityEvery = 2e5

	eng, err := NewEngine(net(), strategies, sim)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(stages)
	if err != nil {
		t.Fatal(err)
	}

	nw := net()
	observed := make([][][]int, n)
	utilities := make([][]float64, n)
	linksChanged := false
	for k := 0; k < stages; k++ {
		adj := nw.AdjacencyInto(nil) // a stage-start copy: Simulate moves nw
		profile := make([]int, n)
		for i, s := range strategies {
			profile[i] = max(1, s.ChooseCW(0, observed[i], utilities[i]))
		}
		cfg := sim
		cfg.CW = profile
		cfg.Seed = rng.DeriveSeed(sim.Seed, "multihop.engine.stage", k)
		res, err := Simulate(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := core.StageRecord{Profile: profile, UtilityRates: make([]float64, n)}
		for i := range adj {
			want.UtilityRates[i] = res.Nodes[i].PayoffRate
			local := []int{profile[i]}
			for _, j := range adj[i] {
				local = append(local, profile[j])
			}
			observed[i] = append(observed[i], local)
			utilities[i] = append(utilities[i], want.UtilityRates[i])
		}
		if !reflect.DeepEqual(got.Stages[k], want) {
			t.Fatalf("stage %d: engine trace diverged from the stage-start snapshot loop", k)
		}
		if !slices.EqualFunc(adj, nw.Rows(), slices.Equal[[]int]) {
			linksChanged = true
		}
	}
	if !linksChanged {
		t.Fatal("no stage changed a link: the case does not exercise mobile history")
	}
}
