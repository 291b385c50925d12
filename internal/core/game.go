// Package core implements the paper's contribution: the non-cooperative
// IEEE 802.11 MAC game G = (P, S, U, δ) of Sections IV–V.
//
// Players are the n saturated nodes; a strategy is a contention-window
// value W ∈ {1, …, Wmax} chosen per stage; the stage utility of player i is
//
//	U_i^s(W^k) = u_i(W^k) · T,   u_i = τ_i((1−p_i)g − e) / T_slot,
//
// and the total utility is the δ-discounted sum over stages. The package
// provides
//
//   - the utility machinery on top of the extended Bianchi model,
//   - the efficient-NE computation (Wc*) and the NE set [Wc0, Wc*]
//     (Theorem 2) with the refinement of Section V.B,
//   - the TFT / GTFT strategies and a repeated-game engine,
//   - the deviation analyses of Lemma 4 and Sections V.D–V.E.
package core

import (
	"errors"
	"fmt"
	"math"

	"selfishmac/internal/backoff"
	"selfishmac/internal/bianchi"
	"selfishmac/internal/num"
	"selfishmac/internal/phy"
)

// DefaultWMax bounds the strategy space {1, …, Wmax}. It comfortably
// contains the efficient NE for every population size in the paper
// (Wc* ≤ ~900 at n = 50, basic access).
const DefaultWMax = 4096

// Config parameterises the game. Utility units: g and e are per-packet
// gain/cost, utility *rates* are per microsecond, stage utilities are
// rates times StageDuration.
type Config struct {
	// N is the number of players (saturated nodes in range of each other).
	N int
	// Mode selects basic or RTS/CTS access.
	Mode phy.AccessMode
	// PHY is the channel parameterisation (Table I by default).
	PHY phy.Params
	// Gain g and Cost e per packet (Table I: g = 1, e = 0.01).
	Gain float64
	Cost float64
	// StageDuration is T in microseconds (Table I: 10 s).
	StageDuration float64
	// Discount is δ (Table I: 0.9999).
	Discount float64
	// WMax bounds the strategy space.
	WMax int
}

// DefaultConfig returns the paper's Table I configuration for n players.
func DefaultConfig(n int, mode phy.AccessMode) Config {
	return Config{
		N:             n,
		Mode:          mode,
		PHY:           phy.Default(),
		Gain:          1,
		Cost:          0.01,
		StageDuration: 10e6, // 10 s in µs
		Discount:      0.9999,
		WMax:          DefaultWMax,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	var errs []error
	if c.N < 1 {
		errs = append(errs, fmt.Errorf("N = %d must be >= 1", c.N))
	}
	if !c.Mode.Valid() {
		errs = append(errs, fmt.Errorf("invalid access mode %v", c.Mode))
	}
	if err := c.PHY.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.Gain <= 0 {
		errs = append(errs, fmt.Errorf("gain g = %g must be positive", c.Gain))
	}
	if c.Cost < 0 {
		errs = append(errs, fmt.Errorf("cost e = %g must be non-negative", c.Cost))
	}
	if c.Cost >= c.Gain {
		errs = append(errs, fmt.Errorf("cost e = %g must be below gain g = %g for the game to have positive equilibria", c.Cost, c.Gain))
	}
	if c.StageDuration <= 0 {
		errs = append(errs, fmt.Errorf("stage duration %g must be positive", c.StageDuration))
	}
	if c.Discount < 0 || c.Discount >= 1 {
		errs = append(errs, fmt.Errorf("discount δ = %g outside [0, 1)", c.Discount))
	}
	if c.WMax < 2 {
		errs = append(errs, fmt.Errorf("WMax = %d must be >= 2", c.WMax))
	}
	return errors.Join(errs...)
}

// Game binds a configuration to its solved channel model.
type Game struct {
	cfg   Config
	model *bianchi.Model
}

// NewGame constructs the game, validating the configuration and deriving
// the channel timing.
func NewGame(cfg Config) (*Game, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid config: %w", err)
	}
	tm, err := cfg.PHY.Timing(cfg.Mode)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	model, err := bianchi.New(tm, cfg.PHY.MaxBackoffStage)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Game{cfg: cfg, model: model}, nil
}

// Config returns the game's configuration.
func (g *Game) Config() Config { return g.cfg }

// SimRun returns the simulator run for this game: its timing, backoff
// cap, gain and cost, with the given CW profile, duration and seed.
func (g *Game) SimRun(cw []int, duration float64, seed uint64) backoff.Run {
	return backoff.Run{
		Timing:   g.model.Timing,
		MaxStage: g.model.MaxStage,
		CW:       cw,
		Duration: duration,
		Seed:     seed,
		Gain:     g.cfg.Gain,
		Cost:     g.cfg.Cost,
	}
}

// Model exposes the underlying channel model.
func (g *Game) Model() *bianchi.Model { return g.model }

// N returns the number of players.
func (g *Game) N() int { return g.cfg.N }

// UtilityRate returns u_i for node i of a solved profile, in gain-units
// per microsecond: τ_i((1−p_i)g − e) / T_slot.
func (g *Game) UtilityRate(sol *bianchi.Solution, i int) float64 {
	return sol.Tau[i] * ((1-sol.P[i])*g.cfg.Gain - g.cfg.Cost) / sol.Tslot
}

// UtilityRates returns u_i for every node of a solved profile.
func (g *Game) UtilityRates(sol *bianchi.Solution) []float64 {
	out := make([]float64, len(sol.Tau))
	for i := range out {
		out[i] = g.UtilityRate(sol, i)
	}
	return out
}

// ProfileUtilities solves an arbitrary CW profile and returns the per-node
// utility rates.
func (g *Game) ProfileUtilities(w []int) ([]float64, error) {
	if len(w) != g.cfg.N {
		return nil, fmt.Errorf("core: profile has %d entries, game has %d players", len(w), g.cfg.N)
	}
	sol, err := g.model.Solve(w)
	if err != nil {
		return nil, err
	}
	return g.UtilityRates(sol), nil
}

// UniformUtilityRate returns the per-node utility rate when every player
// operates on CW w.
func (g *Game) UniformUtilityRate(w int) (float64, error) {
	sol, err := g.model.SolveUniform(w, g.cfg.N)
	if err != nil {
		return 0, err
	}
	return g.UtilityRate(sol, 0), nil
}

// NormalizedGlobalPayoff returns U/C as plotted in the paper's Figures 2
// and 3, where U = Σ_i U_i is the total discounted global payoff and
// C = gT/(σ(1−δ)). The normalization cancels T and δ:
//
//	U/C = n · u · σ / g
//
// with u the per-node utility rate.
func (g *Game) NormalizedGlobalPayoff(w int) (float64, error) {
	u, err := g.UniformUtilityRate(w)
	if err != nil {
		return 0, err
	}
	return float64(g.cfg.N) * u * g.model.Timing.Slot / g.cfg.Gain, nil
}

// NE describes the solved equilibrium structure of the game (Theorem 2
// plus the Section V.B refinement).
type NE struct {
	// WStar is Wc*, the CW of the unique efficient (payoff- and
	// welfare-maximizing, Pareto-optimal) NE.
	WStar int
	// UStar is the per-node utility rate at WStar.
	UStar float64
	// TauStar is the per-node transmission probability at WStar.
	TauStar float64
	// W0 is Wc0: the smallest W with positive uniform utility. Every
	// uniform profile in [W0, WStar] is a NE of the repeated game.
	W0 int
	// Count is the number of Nash equilibria, WStar − W0 + 1.
	Count int
	// ThroughputStar is the normalized channel throughput at WStar.
	ThroughputStar float64
}

// FindEfficientNE computes Wc* by maximizing the uniform per-node utility
// rate over the strategy space (exact fixed point per candidate W, no
// e ≈ 0 approximation), and Wc0 by locating the sign change of the
// utility below Wc* (Theorem 2). Per Lemma 3 the objective is unimodal in
// W, which the coarse-grid argmax exploits.
func (g *Game) FindEfficientNE() (NE, error) {
	if g.cfg.N < 2 {
		return NE{}, fmt.Errorf("core: the MAC game needs at least 2 players, have %d", g.cfg.N)
	}
	var solveErr error
	util := func(w int) float64 {
		u, err := g.UniformUtilityRate(w)
		if err != nil {
			solveErr = err
			return math.Inf(-1)
		}
		return u
	}
	stride := g.cfg.WMax / 128
	if stride < 1 {
		stride = 1
	}
	wStar, uStar, err := num.ArgmaxIntCoarse(util, 1, g.cfg.WMax, stride)
	if err != nil {
		return NE{}, err
	}
	if solveErr != nil {
		return NE{}, solveErr
	}
	if wStar == g.cfg.WMax {
		return NE{}, fmt.Errorf("core: efficient NE hit the strategy-space bound WMax = %d; increase Config.WMax", g.cfg.WMax)
	}

	w0, err := g.findW0(wStar)
	if err != nil {
		return NE{}, err
	}
	sol, err := g.model.SolveUniform(wStar, g.cfg.N)
	if err != nil {
		return NE{}, err
	}
	return NE{
		WStar:          wStar,
		UStar:          uStar,
		TauStar:        sol.Tau[0],
		W0:             w0,
		Count:          wStar - w0 + 1,
		ThroughputStar: sol.Throughput,
	}, nil
}

// FindPaperNE computes Wc* the way the paper's *theoretical model*
// tabulates it (Tables II and III): solve the Appendix-B condition
// Q(τ) = 0 for τ_c* in the e ≪ g limit, then map τ_c* back to the CW
// value through the uniform fixed point (τ is strictly decreasing in W).
//
// FindEfficientNE instead maximizes the exact utility including the
// transmission-cost term e·τ. For basic access the two agree closely; for
// RTS/CTS the payoff plateau is so flat that the cost term moves the exact
// argmax noticeably above the paper's value while changing the payoff by
// well under 1% (see EXPERIMENTS.md).
func (g *Game) FindPaperNE() (NE, error) {
	if g.cfg.N < 2 {
		return NE{}, fmt.Errorf("core: the MAC game needs at least 2 players, have %d", g.cfg.N)
	}
	tauStar, err := g.model.OptimalTau(g.cfg.N)
	if err != nil {
		return NE{}, err
	}
	// Binary search the smallest W with τ(W) <= τ*, then pick the closer
	// of it and its left neighbor.
	tauOf := func(w int) (float64, error) {
		sol, err := g.model.SolveUniform(w, g.cfg.N)
		if err != nil {
			return 0, err
		}
		return sol.Tau[0], nil
	}
	lo, hi := 1, g.cfg.WMax
	tauHi, err := tauOf(hi)
	if err != nil {
		return NE{}, err
	}
	if tauHi > tauStar {
		return NE{}, fmt.Errorf("core: τ* = %g unreachable within WMax = %d; increase Config.WMax", tauStar, g.cfg.WMax)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		tm, err := tauOf(mid)
		if err != nil {
			return NE{}, err
		}
		if tm <= tauStar {
			hi = mid
		} else {
			lo = mid
		}
	}
	wStar := hi
	if lo >= 1 {
		tLo, err := tauOf(lo)
		if err != nil {
			return NE{}, err
		}
		tHi, err := tauOf(hi)
		if err != nil {
			return NE{}, err
		}
		if math.Abs(tLo-tauStar) < math.Abs(tHi-tauStar) {
			wStar = lo
		}
	}
	uStar, err := g.UniformUtilityRate(wStar)
	if err != nil {
		return NE{}, err
	}
	w0, err := g.findW0(wStar)
	if err != nil {
		return NE{}, err
	}
	sol, err := g.model.SolveUniform(wStar, g.cfg.N)
	if err != nil {
		return NE{}, err
	}
	return NE{
		WStar:          wStar,
		UStar:          uStar,
		TauStar:        sol.Tau[0],
		W0:             w0,
		Count:          wStar - w0 + 1,
		ThroughputStar: sol.Throughput,
	}, nil
}

// findW0 locates Wc0: the smallest W in [1, wStar] whose uniform utility
// is positive. The utility is monotone increasing on [1, Wc*] (paper
// Section V.A), so binary search on the sign is valid.
func (g *Game) findW0(wStar int) (int, error) {
	u1, err := g.UniformUtilityRate(1)
	if err != nil {
		return 0, err
	}
	if u1 > 0 {
		return 1, nil
	}
	lo, hi := 1, wStar // u(lo) <= 0, u(hi) > 0
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		u, err := g.UniformUtilityRate(mid)
		if err != nil {
			return 0, err
		}
		if u > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// IsUniformNE reports whether the uniform profile at w is a NE per
// Theorem 2, i.e. w ∈ [Wc0, Wc*].
func (ne NE) IsUniformNE(w int) bool { return w >= ne.W0 && w <= ne.WStar }

// Refinement holds the Section V.B analysis of a candidate NE set.
type Refinement struct {
	// Fair is true for every uniform NE: all players share one CW and
	// one payoff after TFT convergence.
	Fair bool
	// SocialWelfareMaximizer is the unique welfare-maximizing NE (= Wc*).
	SocialWelfareMaximizer int
	// ParetoOptimal lists the Pareto-optimal uniform NE (only Wc*: any
	// other uniform NE is dominated by moving everyone to Wc*).
	ParetoOptimal []int
	// Efficient is the surviving NE after all three criteria.
	Efficient int
}

// Refine applies the paper's three refinement criteria to the NE set.
func (g *Game) Refine(ne NE) (Refinement, error) {
	uStar, err := g.UniformUtilityRate(ne.WStar)
	if err != nil {
		return Refinement{}, err
	}
	pareto := make([]int, 0, 1)
	for w := ne.W0; w <= ne.WStar; w++ {
		u, err := g.UniformUtilityRate(w)
		if err != nil {
			return Refinement{}, err
		}
		// A uniform profile is Pareto-dominated iff some other uniform NE
		// strictly improves every player, i.e. iff u < uStar.
		if u >= uStar-1e-15*math.Abs(uStar) {
			pareto = append(pareto, w)
		}
	}
	return Refinement{
		Fair:                   true,
		SocialWelfareMaximizer: ne.WStar,
		ParetoOptimal:          pareto,
		Efficient:              ne.WStar,
	}, nil
}

// DeviatorUtilityOfTau evaluates the Section V utility of a player as a
// *continuous* function of its own transmission probability tauSelf,
// holding the other n−1 players at tauOther each. It backs the numeric
// verification of Lemma 2 (concavity in τ_i when g ≫ e).
func (g *Game) DeviatorUtilityOfTau(tauSelf, tauOther float64) float64 {
	n := g.cfg.N
	tm := g.model.Timing
	othersIdle := math.Pow(1-tauOther, float64(n-1))
	pSelf := 1 - othersIdle
	// Slot decomposition with one deviator.
	allIdle := (1 - tauSelf) * othersIdle
	psuccSelf := tauSelf * othersIdle
	psuccOthers := float64(n-1) * tauOther * math.Pow(1-tauOther, float64(n-2)) * (1 - tauSelf)
	psucc := psuccSelf + psuccOthers
	ptr := 1 - allIdle
	tslot := allIdle*tm.Slot + psucc*tm.Ts + (ptr-psucc)*tm.Tc
	return tauSelf * ((1-pSelf)*g.cfg.Gain - g.cfg.Cost) / tslot
}
