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

// StageRecord is one stage of the multi-hop trace.
type StageRecord struct {
	// Profile is the CW profile played this stage.
	Profile []int
	// PayoffRates are the measured per-node payoff rates.
	PayoffRates []float64
	// HiddenFraction is the stage's hidden-terminal loss fraction.
	HiddenFraction float64
	// Active marks which nodes were present this stage (nil when the run
	// has no churn — everyone is always present).
	Active []bool
}

// Trace is the outcome of a multi-hop run.
type Trace struct {
	// Stages holds one record per stage.
	Stages []StageRecord
	// ConvergedAt is the first stage from which the profile is uniform
	// and constant to the end (−1 if never), ConvergedCW the common CW.
	ConvergedAt int
	ConvergedCW int
}

// FinalProfile returns the last played profile (nil for empty traces).
func (tr *Trace) FinalProfile() []int {
	if len(tr.Stages) == 0 {
		return nil
	}
	return tr.Stages[len(tr.Stages)-1].Profile
}

// NewEngine builds a multi-hop engine. sim.CW is ignored (profiles come
// from the strategies); sim.Duration is the stage length T.
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
	probe := sim
	probe.CW = make([]int, nw.N())
	for i := range probe.CW {
		probe.CW[i] = 16
	}
	if err := probe.validate(nw.N()); err != nil {
		return nil, fmt.Errorf("multihop: stage: %w", err)
	}
	return &Engine{nw: nw, strategies: strategies, sim: sim, stopWindow: 0}, nil
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

// Run plays up to maxStages stages.
func (e *Engine) Run(maxStages int) (*Trace, error) {
	if maxStages < 1 {
		return nil, fmt.Errorf("multihop: maxStages = %d must be >= 1", maxStages)
	}
	n := e.nw.N()
	var churn *churnState
	if e.churn != nil {
		if err := e.churn.Validate(); err != nil {
			return nil, err
		}
		churn = newChurnState(*e.churn, n)
	}
	trace := &Trace{ConvergedAt: -1}
	// observedBy[i] is node i's history of local views, utilitiesOf[i]
	// its realized payoff rates, one entry per stage.
	observedBy := make([][][]int, n)
	utilitiesOf := make([][]float64, n)

	// With churn, each stage plays on the masked view, which filters
	// into its own reusable buffers (skipping the refill when the mask is
	// unchanged).
	var masked *maskedTopology
	if churn != nil {
		masked = &maskedTopology{base: e.nw}
	}

	uniformRun, lastUniform := 0, 0
	for k := 0; k < maxStages; k++ {
		// Evolve membership and pick the stage's topology.
		nw := e.nw
		var active []bool
		if churn != nil {
			churn.step()
			active = append([]bool(nil), churn.active...)
			masked.active = active
			nw = masked
		}
		profile := make([]int, n)
		for i, s := range e.strategies {
			w := s.ChooseCW(0, observedBy[i], utilitiesOf[i])
			if w < 1 {
				w = 1
			}
			profile[i] = w
		}
		// Record the observations under the topology the stage starts
		// from, before a mobile stage's Simulate moves it. A departed
		// node observes only itself; its neighbors do not see it either
		// (the masked rows cut it out).
		appendLocalViews(observedBy, nw.Rows(), profile)

		sim := e.sim
		sim.CW = profile
		// Per-stage seeds come from a named DeriveSeed stream, the one
		// seed-derivation path of the repo: decorrelated across stages and
		// never colliding with other stream families that share the base.
		sim.Seed = rng.DeriveSeed(e.sim.Seed, "multihop.engine.stage", k)
		res, err := Simulate(nw, sim)
		if err != nil {
			return nil, fmt.Errorf("multihop: stage %d: %w", k, err)
		}
		// Each stage's slot clock restarts at 0; let observers that track
		// a run-wide clock advance their base past this stage.
		if adv, ok := e.sim.Observer.(SlotAdvancer); ok {
			adv.Advance(res.Slots)
		}
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = res.Nodes[i].PayoffRate
		}
		trace.Stages = append(trace.Stages, StageRecord{
			Profile:        profile,
			PayoffRates:    rates,
			HiddenFraction: res.HiddenFraction,
			Active:         active,
		})
		for i, r := range rates {
			utilitiesOf[i] = append(utilitiesOf[i], r)
		}

		if cw, ok := uniformProfile(profile, active); ok {
			if uniformRun > 0 && cw == lastUniform {
				uniformRun++
			} else {
				uniformRun = 1
			}
			lastUniform = cw
		} else {
			uniformRun = 0
		}
		if e.stopWindow > 0 && uniformRun >= e.stopWindow {
			break
		}
	}
	if uniformRun > 0 {
		trace.ConvergedAt = len(trace.Stages) - uniformRun
		trace.ConvergedCW = lastUniform
	}
	return trace, nil
}

// appendLocalViews appends one stage's observations: node i's local view
// is [own CW, neighbor CWs...] under adjacency rows. The views are carved
// from one slab per stage and copy what they need, so rows may change
// afterwards.
func appendLocalViews(observedBy [][][]int, rows [][]int, profile []int) {
	need := 0
	for i := range rows {
		need += 1 + len(rows[i])
	}
	slab := make([]int, 0, need)
	for i := range rows {
		start := len(slab)
		slab = append(slab, profile[i])
		for _, j := range rows[i] {
			slab = append(slab, profile[j])
		}
		observedBy[i] = append(observedBy[i], slab[start:len(slab):len(slab)])
	}
}

// uniformProfile reports whether the profile is uniform — over the active
// nodes only when an activity mask is present — and the common CW.
func uniformProfile(p []int, active []bool) (int, bool) {
	cw, seen := 0, false
	for i, w := range p {
		if active != nil && !active[i] {
			continue
		}
		if !seen {
			cw, seen = w, true
		} else if w != cw {
			return 0, false
		}
	}
	return cw, seen
}
