package multihop

import (
	"errors"
	"fmt"

	"selfishmac/internal/core"
	"selfishmac/internal/rng"
)

// Engine plays the multi-hop repeated game G' dynamically: each stage
// every node picks a CW through a core.Strategy, the spatial simulator
// measures one stage of payoffs, and each node observes its *neighbors'*
// CW values (the paper's promiscuous-mode assumption, now local).
//
// Strategies are reused from the single-hop game under a local-view
// convention: the observation vector a node receives each stage is
// [own CW, neighbor CWs...] with itself at index 0, so TFT's
// min-of-last-stage and GTFT's windowed tolerance work unchanged on the
// neighborhood. Theorem 3's claim — TFT converges to Wm = min_i W_i —
// becomes a measurable dynamic here rather than a graph iteration.
type Engine struct {
	nw         Topology
	strategies []core.Strategy
	sim        SimConfig
	stopWindow int
	churn      *ChurnConfig
}

// NewEngine builds a multi-hop engine. sim.CW is ignored (profiles come
// from the strategies), so every other field is checked up front;
// sim.Duration is the stage length T.
func NewEngine(nw Topology, strategies []core.Strategy, sim SimConfig) (*Engine, error) {
	if nw == nil {
		return nil, errors.New("multihop: nil network")
	}
	if len(strategies) != nw.N() {
		return nil, fmt.Errorf("multihop: %d strategies for %d nodes", len(strategies), nw.N())
	}
	for i, s := range strategies {
		if s == nil {
			return nil, fmt.Errorf("multihop: nil strategy for node %d", i)
		}
	}
	sim.CW = nil
	if err := sim.check(nil); err != nil {
		return nil, fmt.Errorf("multihop: stage: %w", err)
	}
	return &Engine{nw: nw, strategies: strategies, sim: sim}, nil
}

// WithStopWindow makes Run stop early after the profile has been uniform
// and constant for window consecutive stages.
func (e *Engine) WithStopWindow(window int) *Engine {
	if window >= 1 {
		e.stopWindow = window
	}
	return e
}

// WithChurn enables node churn during the run: each stage, active nodes
// leave with cfg.LeaveProb and departed ones rejoin with cfg.JoinProb.
// Convergence is then judged over the active nodes only. The config is
// validated when Run starts.
func (e *Engine) WithChurn(cfg ChurnConfig) *Engine {
	e.churn = &cfg
	return e
}

// Run plays up to maxStages stages on core's stage loop. ChooseCW gets
// player index 0 because each local view puts the node's own CW first,
// and no upper clamp applies. Each stage evolves churn membership (its
// own stream, which no strategy reads), then records the views under the
// topology the stage starts from, before a mobile stage's Simulate
// moves it.
func (e *Engine) Run(maxStages int) (*core.Trace, error) {
	if maxStages < 1 {
		return nil, fmt.Errorf("multihop: maxStages = %d must be >= 1", maxStages)
	}
	n := e.nw.N()
	// With churn, each stage plays on the masked view, which filters
	// into its own reusable buffers (skipping the refill when the mask is
	// unchanged).
	var churn *churnState
	var masked *maskedTopology
	if e.churn != nil {
		if err := e.churn.Validate(); err != nil {
			return nil, err
		}
		churn = newChurnState(*e.churn, n)
		masked = &maskedTopology{base: e.nw}
	}
	stage := func(k int, profile []int) (core.StageRecord, [][]int, error) {
		nw := e.nw
		var active []bool
		if churn != nil {
			churn.step()
			active = append([]bool(nil), churn.active...)
			masked.active = active
			nw = masked
		}
		// A departed node observes only itself; its neighbors do not see
		// it either (the masked rows cut it out).
		views := localViews(nw.Rows(), profile)

		sim := e.sim
		sim.CW = profile
		// Per-stage seeds come from a named DeriveSeed stream, the one
		// seed-derivation path of the repo: decorrelated across stages and
		// never colliding with other stream families that share the base.
		sim.Seed = rng.DeriveSeed(e.sim.Seed, "multihop.engine.stage", k)
		res, err := Simulate(nw, sim)
		if err != nil {
			return core.StageRecord{}, nil, fmt.Errorf("multihop: stage %d: %w", k, err)
		}
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = res.Nodes[i].PayoffRate
		}
		return core.StageRecord{UtilityRates: rates, Active: active}, views, nil
	}
	return core.Loop{Strategies: e.strategies, Stage: stage, LocalViews: true, StopWindow: e.stopWindow}.Run(maxStages)
}

// localViews returns one stage's observations: node i's local view is
// [own CW, neighbor CWs...] under adjacency rows. The views are carved
// from one slab and copy what they need, so rows may change afterwards.
func localViews(rows [][]int, profile []int) [][]int {
	need := 0
	for i := range rows {
		need += 1 + len(rows[i])
	}
	slab := make([]int, 0, need)
	views := make([][]int, len(rows))
	for i := range rows {
		start := len(slab)
		slab = append(slab, profile[i])
		for _, j := range rows[i] {
			slab = append(slab, profile[j])
		}
		views[i] = slab[start:len(slab):len(slab)]
	}
	return views
}
