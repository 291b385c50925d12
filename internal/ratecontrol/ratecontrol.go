// Package ratecontrol implements the extension the paper's conclusion
// sketches: "the game theoretical model proposed in this paper is a
// general framework that can be extended to model other selfish behaviors
// such as rate control by redefining the proper utility function."
//
// Here the selfish knob is the payload size L (bits per packet) at a
// fixed contention window; the channel model and the repeated-game
// machinery are reused unchanged. With a per-bit error rate the utility
//
//	u_i = [τ(1−p)·(1−ber)^{L_i}·g_bit·L_i − τ·e] / T_slot(L_1, …, L_n)
//
// has an interior optimum, and the game exhibits the classic commons
// tragedy: a deviator's longer packets earn it more bits while their
// airtime cost lands in the shared T_slot, so the symmetric best-response
// equilibrium L_NE exceeds the social optimum L_soc (~2.7x with the
// default parameters) and the price of anarchy u(L_soc)/u(L_NE) is
// strictly above 1 (~1.4). Unlike the CW game, the externality here is
// *successful-airtime hogging*, not collision cost, so basic and RTS/CTS
// access suffer almost equally — collisions merely stop carrying the
// payload under RTS/CTS, a second-order effect at equilibrium τ.
//
// The TFT argument transfers: aggression now means *larger* L, TFT
// matches the largest observed payload, and long-sighted players sustain
// L_soc for exactly the reasons of the paper's Theorem 2.
package ratecontrol

import (
	"errors"
	"fmt"
	"math"

	"selfishmac/internal/bianchi"
	"selfishmac/internal/num"
	"selfishmac/internal/phy"
)

// Config parameterises the packet-size game.
type Config struct {
	// N is the number of saturated nodes.
	N int
	// W is the (fixed) contention window every node operates on,
	// typically the efficient NE of the CW game.
	W int
	// Mode selects basic or RTS/CTS access.
	Mode phy.AccessMode
	// PHY is the channel parameterisation; its PayloadBits field is
	// ignored (payload is the strategy).
	PHY phy.Params
	// GainPerBit is g_bit, the value of one delivered payload bit.
	GainPerBit float64
	// CostPerAttempt is e, the energy cost of one transmission attempt.
	CostPerAttempt float64
	// BER is the independent per-bit error probability; it is what makes
	// very long packets unattractive.
	BER float64
	// LMin and LMax bound the payload in bits.
	LMin, LMax float64
}

// DefaultConfig returns a paper-scaled configuration: Table I channel,
// g_bit normalized so a paper-sized packet is worth 1, e = 0.01,
// BER = 1e-4 (interior optimum around a few kilobits).
func DefaultConfig(n, w int, mode phy.AccessMode) Config {
	return Config{
		N:              n,
		W:              w,
		Mode:           mode,
		PHY:            phy.Default(),
		GainPerBit:     1.0 / 8184,
		CostPerAttempt: 0.01,
		BER:            1e-4,
		LMin:           256,
		LMax:           32768,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	var errs []error
	if c.N < 2 {
		errs = append(errs, fmt.Errorf("N = %d must be >= 2", c.N))
	}
	if c.W < 1 {
		errs = append(errs, fmt.Errorf("W = %d must be >= 1", c.W))
	}
	if !c.Mode.Valid() {
		errs = append(errs, fmt.Errorf("invalid mode %v", c.Mode))
	}
	if c.GainPerBit <= 0 {
		errs = append(errs, fmt.Errorf("gain per bit %g must be positive", c.GainPerBit))
	}
	if c.CostPerAttempt < 0 {
		errs = append(errs, errors.New("negative attempt cost"))
	}
	if c.BER < 0 || c.BER >= 1 {
		errs = append(errs, fmt.Errorf("BER %g outside [0, 1)", c.BER))
	}
	if c.LMin <= 0 || c.LMax <= c.LMin {
		errs = append(errs, fmt.Errorf("payload bounds [%g, %g] invalid", c.LMin, c.LMax))
	}
	probe := c.PHY
	probe.PayloadBits = c.LMin
	if err := probe.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Game is the packet-size game at a solved channel operating point.
type Game struct {
	cfg Config
	// tau and p come from the CW game's fixed point (independent of L).
	tau, p float64
	// psuccSolo = tau(1-tau)^(n-1): probability a *given* node transmits
	// alone in a slot. allIdle = (1-tau)^n.
	psuccSolo float64
	allIdle   float64
}

// NewGame solves the channel fixed point for the configured CW and
// population; payload choices never change τ or p (they only stretch the
// slot durations), so one solve suffices.
func NewGame(cfg Config) (*Game, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ratecontrol: invalid config: %w", err)
	}
	tm, err := cfg.PHY.Timing(cfg.Mode)
	if err != nil {
		return nil, err
	}
	model, err := bianchi.New(tm, cfg.PHY.MaxBackoffStage)
	if err != nil {
		return nil, err
	}
	sol, err := model.SolveUniform(cfg.W, cfg.N)
	if err != nil {
		return nil, err
	}
	tau := sol.Tau[0]
	return &Game{
		cfg:       cfg,
		tau:       tau,
		p:         sol.P[0],
		psuccSolo: tau * math.Pow(1-tau, float64(cfg.N-1)),
		allIdle:   math.Pow(1-tau, float64(cfg.N)),
	}, nil
}

// Config returns the game's configuration.
func (g *Game) Config() Config { return g.cfg }

// Tau returns the per-slot transmission probability (from the CW game).
func (g *Game) Tau() float64 { return g.tau }

// HoldTimes returns the channel holds (success, collision-contribution)
// of a transmission with payload L bits — the inputs the MAC simulator's
// per-node duration overrides need to replay a payload profile. They are
// phy's Ts and Tc with PayloadBits = L. Under RTS/CTS only the RTS frames
// collide, so the payload drops out of tc — the structural reason the
// rate-control externality is mild there. A payload phy rejects (L <= 0)
// has no holds: both are NaN.
func (g *Game) HoldTimes(L float64) (ts, tc float64) {
	p := g.cfg.PHY
	p.PayloadBits = L
	tm, err := p.Timing(g.cfg.Mode)
	if err != nil {
		return math.NaN(), math.NaN()
	}
	return tm.Ts, tm.Tc
}

// pOK is the probability a payload of L bits survives the channel's bit
// errors (headers are covered by stronger coding and ignored).
func (g *Game) pOK(L float64) float64 {
	if g.cfg.BER == 0 {
		return 1
	}
	return math.Pow(1-g.cfg.BER, L)
}

// tslot returns the mean slot duration when one deviator uses Ldev and
// the other n−1 nodes use Lbase. The four slot classes:
//
//	deviator alone            psuccSolo              → Ts(Ldev)
//	one base node alone       (n−1)·psuccSolo        → Ts(Lbase)
//	collision with deviator   τ·(1−(1−τ)^(n−1))      → Tc(max(Ldev,Lbase))
//	collision, deviator idle  rest of Ptr            → Tc(Lbase)
func (g *Game) tslot(Ldev, Lbase float64) float64 {
	n := float64(g.cfg.N)
	soloDev := g.psuccSolo
	soloBase := (n - 1) * g.psuccSolo
	collDev := g.tau * g.p // p = 1-(1-tau)^(n-1): someone else too
	ptr := 1 - g.allIdle
	collBase := ptr - soloDev - soloBase - collDev
	if collBase < 0 {
		collBase = 0
	}
	tsDev, _ := g.HoldTimes(Ldev)
	tsBase, tcBase := g.HoldTimes(Lbase)
	_, tcMax := g.HoldTimes(math.Max(Ldev, Lbase))
	return g.allIdle*g.cfg.PHY.SlotTime +
		soloDev*tsDev +
		soloBase*tsBase +
		collDev*tcMax +
		collBase*tcBase
}

// DeviatorUtility is the deviator's utility rate when it uses Ldev
// against a field at Lbase.
func (g *Game) DeviatorUtility(Ldev, Lbase float64) float64 {
	gain := g.tau * (1 - g.p) * g.pOK(Ldev) * g.cfg.GainPerBit * Ldev
	cost := g.tau * g.cfg.CostPerAttempt
	return (gain - cost) / g.tslot(Ldev, Lbase)
}

// UniformUtility is the per-node utility rate when everyone uses L.
func (g *Game) UniformUtility(L float64) float64 {
	return g.DeviatorUtility(L, L)
}

// optGrid is the grid resolution for payload maximizations. The utility
// is not unimodal at high BER (a positive hump, a negative dip, and an
// asymptotic rise of the pure-cost branch toward zero), so a grid scan
// locates the winning mode before golden-section refinement.
const optGrid = 128

// SocialOptimum maximizes the uniform utility over [LMin, LMax].
func (g *Game) SocialOptimum() (L, u float64, err error) {
	L, err = num.GridGoldenMax(g.UniformUtility, g.cfg.LMin, g.cfg.LMax, optGrid, num.Options{Tol: 1e-3, MaxIter: 300})
	if err != nil {
		return 0, 0, err
	}
	return L, g.UniformUtility(L), nil
}

// BestResponse returns the payload maximizing the deviator's utility
// against a field at Lbase.
func (g *Game) BestResponse(Lbase float64) (float64, error) {
	obj := func(L float64) float64 { return g.DeviatorUtility(L, Lbase) }
	return num.GridGoldenMax(obj, g.cfg.LMin, g.cfg.LMax, optGrid, num.Options{Tol: 1e-3, MaxIter: 300})
}

// SymmetricNE iterates the best response to its fixed point: the
// symmetric one-shot Nash equilibrium payload L_NE.
func (g *Game) SymmetricNE() (L, u float64, err error) {
	x := []float64{(g.cfg.LMin + g.cfg.LMax) / 2}
	iterate := func(in, out []float64) {
		br, brErr := g.BestResponse(num.Clamp(in[0], g.cfg.LMin, g.cfg.LMax))
		if brErr != nil {
			out[0] = math.NaN()
			return
		}
		out[0] = br
	}
	if _, err := num.FixedPoint(iterate, x, 0.5, num.Options{Tol: 0.5, MaxIter: 200}); err != nil {
		return 0, 0, fmt.Errorf("ratecontrol: NE iteration: %w", err)
	}
	return x[0], g.UniformUtility(x[0]), nil
}

// Outcome summarizes the commons analysis.
type Outcome struct {
	// LSocial and USocial are the welfare-maximizing payload and the
	// per-node utility there.
	LSocial, USocial float64
	// LNE and UNE are the one-shot symmetric NE payload and utility.
	LNE, UNE float64
	// PriceOfAnarchy = USocial / UNE (>= 1; > 1 means myopic selfishness
	// costs the network).
	PriceOfAnarchy float64
	// Escalation = LNE / LSocial (> 1 means selfish packets are longer).
	Escalation float64
}

// Analyze computes the full commons analysis.
func (g *Game) Analyze() (Outcome, error) {
	lSoc, uSoc, err := g.SocialOptimum()
	if err != nil {
		return Outcome{}, err
	}
	lNE, uNE, err := g.SymmetricNE()
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{LSocial: lSoc, USocial: uSoc, LNE: lNE, UNE: uNE}
	if uNE > 0 {
		out.PriceOfAnarchy = uSoc / uNE
	}
	if lSoc > 0 {
		out.Escalation = lNE / lSoc
	}
	return out, nil
}

// TFTOutcome states what the repeated game sustains: with long-sighted
// players and TFT (matching the largest observed payload), any unilateral
// escalation above LSocial is met in kind, and — by the same argument as
// the paper's Theorem 2 in the CW game — the social optimum is an
// equilibrium of the repeated game. The returned value is the per-node
// utility TFT sustains, for comparison with the one-shot NE.
func (g *Game) TFTOutcome() (float64, error) {
	_, u, err := g.SocialOptimum()
	return u, err
}
