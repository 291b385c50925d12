package core

import (
	"errors"
	"fmt"
	"slices"

	"selfishmac/internal/rng"
)

// ObservationNoise perturbs one observed CW value. The engine applies it
// to every cross-player observation (a player always knows its own CW
// exactly). The paper's GTFT exists precisely to tolerate such noise.
type ObservationNoise func(r *rng.Source, trueCW int) int

// StageRecord is one stage of a repeated-game trace.
type StageRecord struct {
	// Profile is the CW profile actually played.
	Profile []int
	// UtilityRates are the per-node utility rates u_i (per microsecond).
	UtilityRates []float64
	// Throughput is the normalized channel throughput of the stage (zero
	// when the stage model reports none).
	Throughput float64
	// Active marks which nodes were present this stage (nil when the run
	// has no churn — everyone is always present).
	Active []bool
}

// Trace is the outcome of running the repeated game.
type Trace struct {
	// Stages holds one record per played stage.
	Stages []StageRecord
	// ConvergedAt is the first stage from which the profile is uniform
	// and constant to the end of the run, or -1 if never.
	ConvergedAt int
	// ConvergedCW is the common CW after convergence (0 if none).
	ConvergedCW int
}

// FinalProfile returns the last played CW profile (nil for an empty trace).
func (tr *Trace) FinalProfile() []int {
	if len(tr.Stages) == 0 {
		return nil
	}
	return tr.Stages[len(tr.Stages)-1].Profile
}

// StageFunc plays stage k at the chosen profile. It returns the stage's
// record, whose Profile the Loop fills in, and views[i], player i's
// observation of the stage, which the Loop appends to that player's
// history. A record's Active mask restricts convergence to the players
// present.
type StageFunc func(k int, profile []int) (rec StageRecord, views [][]int, err error)

// Loop is the one stage loop of the repeated game, shared by the
// single-hop Engine (§IV), the multi-hop engine (§VI) and closed-loop
// experiments. Each stage it asks every strategy for a CW, clamps it to
// [1, WMax], plays the stage through Stage, appends each player's view
// and utility rate to that player's history, and tracks the uniform tail
// of the trace for ConvergedAt/ConvergedCW.
type Loop struct {
	Strategies []Strategy
	Stage      StageFunc
	// LocalViews passes 0 as the player index to ChooseCW, for views
	// that put the player's own CW first.
	LocalViews bool
	// WMax, when positive, caps every chosen CW.
	WMax int
	// StopWindow, when positive, ends the run once the profile has been
	// uniform and constant for that many consecutive stages.
	StopWindow int
}

// Run plays up to maxStages stages and returns the trace. Errors from
// Stage are returned as they are.
func (l Loop) Run(maxStages int) (*Trace, error) {
	n := len(l.Strategies)
	trace := &Trace{ConvergedAt: -1}
	// observedBy[i] is the history as seen by player i, utilitiesOf[i]
	// its realized utility rates, one entry per stage.
	observedBy := make([][][]int, n)
	utilitiesOf := make([][]float64, n)

	uniformRun := 0 // consecutive trailing stages with one constant uniform profile
	lastUniform := 0
	for k := 0; k < maxStages; k++ {
		profile := make([]int, n)
		for i, s := range l.Strategies {
			self := i
			if l.LocalViews {
				self = 0
			}
			w := max(s.ChooseCW(self, observedBy[i], utilitiesOf[i]), 1)
			if l.WMax > 0 {
				w = min(w, l.WMax)
			}
			profile[i] = w
		}
		rec, views, err := l.Stage(k, profile)
		if err != nil {
			return nil, err
		}
		rec.Profile = profile
		trace.Stages = append(trace.Stages, rec)
		for i := range observedBy {
			observedBy[i] = append(observedBy[i], views[i])
			utilitiesOf[i] = append(utilitiesOf[i], rec.UtilityRates[i])
		}

		switch cw, ok := uniformProfile(profile, rec.Active); {
		case !ok:
			uniformRun = 0
		case uniformRun > 0 && cw == lastUniform:
			uniformRun++
		default:
			uniformRun, lastUniform = 1, cw
		}
		if l.StopWindow > 0 && uniformRun >= l.StopWindow {
			break
		}
	}

	// Derive convergence from the tail of the trace.
	if uniformRun > 0 {
		trace.ConvergedAt = len(trace.Stages) - uniformRun
		trace.ConvergedCW = lastUniform
	}
	return trace, nil
}

// uniformProfile reports whether the profile is uniform — over the active
// players only when an activity mask is present — and the common CW.
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

// Engine runs the repeated MAC game: each stage it collects every
// player's CW from its strategy, solves the channel model for the stage,
// records utilities, and feeds (possibly noisy) observations forward.
type Engine struct {
	game       *Game
	strategies []Strategy
	noise      ObservationNoise
	src        *rng.Source
	stopWindow int
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithNoise installs an observation-noise model.
func WithNoise(noise ObservationNoise) EngineOption {
	return func(e *Engine) { e.noise = noise }
}

// WithSeed seeds the engine's randomness (observation noise). The default
// seed is 1.
func WithSeed(seed uint64) EngineOption {
	return func(e *Engine) { e.src = rng.New(seed) }
}

// WithStopOnConvergence makes Run return early once the profile has been
// uniform and unchanged for window consecutive stages (window >= 1; any
// smaller value means 3).
func WithStopOnConvergence(window int) EngineOption {
	return func(e *Engine) {
		if window < 1 {
			window = 3
		}
		e.stopWindow = window
	}
}

// NewEngine builds an engine for the game with one strategy per player.
func NewEngine(g *Game, strategies []Strategy, opts ...EngineOption) (*Engine, error) {
	if g == nil {
		return nil, errors.New("core: nil game")
	}
	if len(strategies) != g.N() {
		return nil, fmt.Errorf("core: %d strategies for %d players", len(strategies), g.N())
	}
	for i, s := range strategies {
		if s == nil {
			return nil, fmt.Errorf("core: nil strategy for player %d", i)
		}
	}
	e := &Engine{game: g, strategies: strategies, src: rng.New(1)}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Run plays up to maxStages stages and returns the trace. Each stage is
// a Bianchi solve of the clamped profile; every player observes the full
// profile, its own CW exactly and the others' through the noise model.
func (e *Engine) Run(maxStages int) (*Trace, error) {
	if maxStages < 1 {
		return nil, fmt.Errorf("core: maxStages = %d must be >= 1", maxStages)
	}
	wMax := e.game.Config().WMax
	stage := func(k int, profile []int) (StageRecord, [][]int, error) {
		sol, err := e.game.Model().Solve(profile)
		if err != nil {
			return StageRecord{}, nil, fmt.Errorf("core: stage %d profile %v: %w", k, profile, err)
		}
		views := make([][]int, len(profile))
		for i := range views {
			views[i] = slices.Clone(profile)
			if e.noise == nil {
				continue
			}
			for j, w := range profile {
				if j != i {
					views[i][j] = min(max(e.noise(e.src, w), 1), wMax)
				}
			}
		}
		return StageRecord{UtilityRates: e.game.UtilityRates(sol), Throughput: sol.Throughput}, views, nil
	}
	return Loop{Strategies: e.strategies, Stage: stage, WMax: wMax, StopWindow: e.stopWindow}.Run(maxStages)
}
