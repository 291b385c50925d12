package multihop

import (
	"math"
	"reflect"
	"testing"

	"selfishmac/internal/core"
)

func TestChurnConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ChurnConfig
	}{
		{"LeaveProb 1", ChurnConfig{LeaveProb: 1}},
		{"negative LeaveProb", ChurnConfig{LeaveProb: -0.1}},
		{"NaN LeaveProb", ChurnConfig{LeaveProb: math.NaN()}},
		{"JoinProb above 1", ChurnConfig{JoinProb: 1.5}},
		{"negative JoinProb", ChurnConfig{JoinProb: -0.2}},
		{"negative MinActive", ChurnConfig{MinActive: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", tc.cfg)
			}
			// The engine must reject it at Run time too.
			g := line5()
			eng, err := NewEngine(g, tftStrategies([]int{10, 10, 10, 10, 10}), stageSim(1e6))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.WithChurn(tc.cfg).Run(2); err == nil {
				t.Error("Run accepted the invalid churn config")
			}
		})
	}
	if err := (ChurnConfig{}).Validate(); err != nil {
		t.Errorf("zero churn config rejected: %v", err)
	}
}

func TestMaskedTopologyCutsDepartedNodes(t *testing.T) {
	g := line5()
	m := &maskedTopology{base: g, active: []bool{true, true, false, true, true}}
	if m.N() != 5 {
		t.Fatalf("N = %d, want 5 (indices are stable under churn)", m.N())
	}
	// Every row, not just the departed node's neighbors: the departed
	// node has no links, nobody links to it, and the links between
	// active nodes survive, ascending.
	want := [][]int{{1}, {0}, nil, {4}, {3}}
	if adj := m.Rows(); !reflect.DeepEqual(adj, want) {
		t.Fatalf("masked rows %v, want %v", adj, want)
	}
}

func TestChurnStateRespectsMinActive(t *testing.T) {
	st := newChurnState(ChurnConfig{Seed: 1, LeaveProb: 0.9, JoinProb: 0, MinActive: 3}, 6)
	for k := 0; k < 50; k++ {
		st.step()
		if st.nUp < 3 {
			t.Fatalf("stage %d: %d active, MinActive 3 violated", k, st.nUp)
		}
	}
	if st.nUp != 3 {
		t.Fatalf("90%% leave with no rejoin left %d active, want the floor 3", st.nUp)
	}
}

func TestChurnStateIsDeterministic(t *testing.T) {
	trajectory := func() [][]bool {
		st := newChurnState(ChurnConfig{Seed: 11, LeaveProb: 0.3, JoinProb: 0.4}, 8)
		var out [][]bool
		for k := 0; k < 20; k++ {
			st.step()
			out = append(out, append([]bool(nil), st.active...))
		}
		return out
	}
	if !reflect.DeepEqual(trajectory(), trajectory()) {
		t.Fatal("same seed produced different churn trajectories")
	}
}

// TFT under churn: the network still converges to the global minimum CW,
// and the trace records per-stage membership.
func TestEngineChurnConvergesAndRecordsActive(t *testing.T) {
	g := line5()
	w0 := []int{100, 90, 80, 70, 12}
	eng, err := NewEngine(g, tftStrategies(w0), stageSim(1e6))
	if err != nil {
		t.Fatal(err)
	}
	eng = eng.WithChurn(ChurnConfig{Seed: 4, LeaveProb: 0.1, JoinProb: 0.5, MinActive: 3})
	tr, err := eng.WithStopWindow(3).Run(30)
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range tr.Stages {
		if st.Active == nil {
			t.Fatalf("stage %d has no Active mask despite churn", k)
		}
		nUp := 0
		for _, a := range st.Active {
			if a {
				nUp++
			}
		}
		if nUp < 3 {
			t.Fatalf("stage %d: %d active below MinActive 3", k, nUp)
		}
	}
	if tr.ConvergedAt < 0 {
		t.Fatal("TFT did not converge under mild churn")
	}
	// The minimum can only travel along live links, but it can never
	// increase: the converged CW is the global minimum as long as node 4
	// was ever connected — with JoinProb 0.5 over 30 stages it is.
	if tr.ConvergedCW != 12 {
		t.Fatalf("converged to %d under churn, want the global minimum 12", tr.ConvergedCW)
	}
}

func TestEngineWithoutChurnHasNilActive(t *testing.T) {
	g := line5()
	eng, err := NewEngine(g, tftStrategies([]int{30, 30, 30, 30, 30}), stageSim(1e6))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range tr.Stages {
		if st.Active != nil {
			t.Fatalf("stage %d has an Active mask without churn", k)
		}
	}
}

// A departed node must not observe or be observed: its TFT state freezes
// while it is away, so it cannot drag the network while absent.
func TestChurnDepartedNodeIsInvisible(t *testing.T) {
	g := &fixedGraph{adj: [][]int{{1}, {0, 2}, {1}}}
	strats := []core.Strategy{
		core.TFT{Initial: 10}, // the low CW that would normally spread
		core.TFT{Initial: 50},
		core.TFT{Initial: 50},
	}
	eng, err := NewEngine(g, strats, stageSim(1e6))
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 draws first and leaves at stage 0 (LeaveProb 0.99) and never
	// returns (JoinProb 0); MinActive 2 then keeps the other two present.
	eng = eng.WithChurn(ChurnConfig{Seed: 8, LeaveProb: 0.99, JoinProb: 0, MinActive: 2})
	tr, err := eng.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range tr.Stages {
		if st.Active[0] {
			t.Fatalf("stage %d: node 0 is present; the case needs it gone from stage 0", k)
		}
	}
	final := tr.FinalProfile()
	if final[1] == 10 || final[2] == 10 {
		t.Fatalf("final profile %v: a node adopted the CW of a node that was never present", final)
	}
}
