// Package bianchi implements the paper's Section III: Bianchi's saturated
// IEEE 802.11 DCF Markov-chain model, extended to *selfish* environments
// where each node may operate on its own contention-window value.
//
// For a profile W = (W_1, …, W_n) of per-node initial contention windows,
// the model couples, for every node i,
//
//	τ_i = 2 / (1 + W_i + p_i·W_i·Σ_{r=0}^{m-1}(2 p_i)^r)       (paper eq. 2)
//	p_i = 1 − Π_{j≠i} (1 − τ_j)                                 (paper eq. 3)
//
// where τ_i is i's per-slot transmission probability, p_i its conditional
// collision probability, and m the maximum backoff stage. Eq. 2 is written
// in the summation form, which remains finite at p_i = 1/2 where the
// closed form (1−(2p)^m)/(1−2p) is 0/0.
//
// The heterogeneous system is solved by damped fixed-point iteration; the
// homogeneous (all-equal-W) case, which the repeated game converges to, is
// solved by bisection on a single monotone equation and admits a unique
// solution (Bianchi 2000).
package bianchi

import (
	"errors"
	"fmt"
	"math"

	"selfishmac/internal/backoff"
	"selfishmac/internal/num"
	"selfishmac/internal/phy"
)

// Model binds the channel timing and the maximum backoff stage.
type Model struct {
	// Timing carries sigma, Ts, Tc and E[P] for the chosen access mode.
	Timing phy.Timing
	// MaxStage is m, the number of contention-window doublings.
	MaxStage int
}

// New returns a model over the given timing with maximum backoff stage m.
func New(tm phy.Timing, maxStage int) (*Model, error) {
	if maxStage < 0 || maxStage > 16 {
		return nil, fmt.Errorf("bianchi: max backoff stage %d outside [0, 16]", maxStage)
	}
	if tm.Slot <= 0 || tm.Ts <= 0 || tm.Tc <= 0 || tm.Payload <= 0 {
		return nil, fmt.Errorf("bianchi: non-positive timing %+v", tm)
	}
	return &Model{Timing: tm, MaxStage: maxStage}, nil
}

// Tau evaluates eq. (2): the stationary transmission probability of a node
// with initial contention window w facing conditional collision
// probability p. w must be >= 1 and p in [0, 1].
func (m *Model) Tau(w int, p float64) float64 {
	fw := float64(w)
	return 2 / (1 + fw + p*fw*num.GeomSeriesSum(2*p, m.MaxStage))
}

// SlotStats is the per-slot decomposition of the channel.
type SlotStats struct {
	// Ptr is the probability at least one node transmits in a slot.
	Ptr float64
	// Ps is the probability a transmission is a success, conditioned on
	// at least one transmission (Ps = PsuccSlot / Ptr).
	Ps float64
	// PsuccSlot = Σ_i τ_i Π_{j≠i}(1−τ_j): unconditional per-slot success.
	PsuccSlot float64
	// Tslot is the average slot duration in microseconds:
	// (1−Ptr)σ + PsuccSlot·Ts + (Ptr−PsuccSlot)·Tc.
	Tslot float64
	// Throughput is the normalized saturation throughput S.
	Throughput float64
}

// Solution is the solved operating point for a CW profile.
type Solution struct {
	// W is the contention-window profile the solution corresponds to.
	W []int
	// Tau and P are the per-node transmission and collision probabilities.
	Tau []float64
	P   []float64
	SlotStats
	// Iterations is the fixed-point iteration count (0 for closed paths).
	Iterations int
}

// SuccessRate returns node i's unconditional per-slot success probability
// τ_i (1 − p_i).
func (s *Solution) SuccessRate(i int) float64 { return s.Tau[i] * (1 - s.P[i]) }

// MeanAccessDelay returns the expected time (µs) between node i's
// consecutive successful packet deliveries: one success arrives every
// 1/(τ_i(1−p_i)) slots of mean duration T_slot. The paper's Section VIII
// notes its utility ignores delay; this quantifies what the NE costs in
// that dimension.
func (s *Solution) MeanAccessDelay(i int) float64 {
	sr := s.SuccessRate(i)
	if sr <= 0 {
		return math.Inf(1)
	}
	return s.Tslot / sr
}

// validateProfile rejects empty profiles and CW values below 1.
func validateProfile(w []int) error {
	if len(w) == 0 {
		return errors.New("bianchi: empty CW profile")
	}
	for i, wi := range w {
		if wi < 1 {
			return fmt.Errorf("bianchi: node %d has CW %d < 1", i, wi)
		}
	}
	return nil
}

// exclProducts returns excl[i] = Π_{j≠i} (1 − τ_j) using prefix/suffix
// products, avoiding division (stable even when some τ_j → 1).
func exclProducts(tau []float64, excl []float64) {
	n := len(tau)
	prefix := 1.0
	for i := 0; i < n; i++ {
		excl[i] = prefix
		prefix *= 1 - tau[i]
	}
	suffix := 1.0
	for i := n - 1; i >= 0; i-- {
		excl[i] *= suffix
		suffix *= 1 - tau[i]
	}
}

// slotStats computes the channel decomposition for transmission
// probabilities tau.
func (m *Model) slotStats(tau []float64) SlotStats {
	n := len(tau)
	excl := make([]float64, n)
	exclProducts(tau, excl)
	var psucc float64
	allIdle := 1.0
	for i := 0; i < n; i++ {
		psucc += tau[i] * excl[i]
		allIdle *= 1 - tau[i]
	}
	ptr := 1 - allIdle
	tm := m.Timing
	tslot := allIdle*tm.Slot + psucc*tm.Ts + (ptr-psucc)*tm.Tc
	st := SlotStats{
		Ptr:       ptr,
		PsuccSlot: psucc,
		Tslot:     tslot,
	}
	if ptr > 0 {
		st.Ps = num.Clamp(psucc/ptr, 0, 1)
	}
	if tslot > 0 {
		st.Throughput = psucc * tm.Payload / tslot
	}
	return st
}

// Stats exposes the slot decomposition for an arbitrary τ vector. It is
// used by the game layer to evaluate hypothetical profiles.
func (m *Model) Stats(tau []float64) SlotStats { return m.slotStats(tau) }

// Solve computes the operating point of an arbitrary heterogeneous CW
// profile by damped fixed-point iteration on τ.
func (m *Model) Solve(w []int) (*Solution, error) {
	if err := validateProfile(w); err != nil {
		return nil, err
	}
	n := len(w)
	if n == 1 {
		// A single node never collides: p = 0, τ = 2/(W+1).
		tau := m.Tau(w[0], 0)
		sol := &Solution{
			W:   append([]int(nil), w...),
			Tau: []float64{tau},
			P:   []float64{0},
		}
		sol.SlotStats = m.slotStats(sol.Tau)
		return sol, nil
	}
	// Uniform profiles have a closed 1-D path; use it when applicable.
	uniform := true
	for _, wi := range w[1:] {
		if wi != w[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return m.SolveUniform(w[0], n)
	}

	tau := make([]float64, n)
	for i, wi := range w {
		tau[i] = m.Tau(wi, 0)
	}
	excl := make([]float64, n)
	iterate := func(in, out []float64) {
		exclProducts(in, excl)
		for i := range out {
			p := 1 - excl[i]
			out[i] = m.Tau(w[i], num.Clamp(p, 0, 1))
		}
	}
	iters, err := num.FixedPoint(iterate, tau, 0.5, num.Options{Tol: 1e-13, MaxIter: 2000})
	if err != nil {
		return nil, fmt.Errorf("bianchi: heterogeneous solve for %v: %w", w, err)
	}
	sol := &Solution{
		W:          append([]int(nil), w...),
		Tau:        tau,
		P:          make([]float64, n),
		Iterations: iters,
	}
	exclProducts(tau, excl)
	for i := range sol.P {
		sol.P[i] = num.Clamp(1-excl[i], 0, 1)
	}
	sol.SlotStats = m.slotStats(tau)
	return sol, nil
}

// SolveUniform computes the operating point when all n nodes use CW w.
// The coupled system collapses to one equation in τ,
//
//	τ = Tau(w, 1 − (1−τ)^(n−1)),
//
// whose right-hand side is decreasing in τ while the left is increasing,
// so bisection on the difference finds the unique crossing. Solved points
// are memoized in the process-wide cache (see cache.go); a cached result
// is bit-identical to the direct solve.
func (m *Model) SolveUniform(w, n int) (*Solution, error) {
	if n < 1 {
		return nil, fmt.Errorf("bianchi: n = %d must be >= 1", n)
	}
	if w < 1 {
		return nil, fmt.Errorf("bianchi: CW %d < 1", w)
	}
	key := m.uniformKey(w, n)
	if pt, ok := sharedCache.lookup(key); ok {
		return uniformSolution(w, n, pt), nil
	}
	sol, err := m.solveUniformUncached(w, n)
	if err != nil {
		return nil, err
	}
	sharedCache.store(key, cachedPoint{
		tauDev:  sol.Tau[0],
		tauBase: sol.Tau[0],
		pDev:    sol.P[0],
		pBase:   sol.P[0],
		stats:   sol.SlotStats,
		iters:   sol.Iterations,
	})
	return sol, nil
}

// solveUniformUncached performs the actual uniform solve; SolveUniform
// wraps it with memoization.
func (m *Model) solveUniformUncached(w, n int) (*Solution, error) {
	var tau float64
	if n == 1 {
		tau = m.Tau(w, 0)
	} else {
		f := func(t float64) float64 {
			p := 1 - math.Pow(1-t, float64(n-1))
			return t - m.Tau(w, p)
		}
		root, err := num.Bisect(f, 0, 1, num.Options{Tol: 1e-14, MaxIter: 200})
		if err != nil {
			return nil, fmt.Errorf("bianchi: uniform solve (w=%d, n=%d): %w", w, n, err)
		}
		tau = root
	}
	p := 0.0
	if n > 1 {
		p = 1 - math.Pow(1-tau, float64(n-1))
	}
	sol := &Solution{
		W:   backoff.Uniform(w, n),
		Tau: uniformFloats(tau, n),
		P:   uniformFloats(p, n),
	}
	sol.SlotStats = m.uniformSlotStats(tau, n)
	return sol, nil
}

// uniformSlotStats is the closed-form slot decomposition for n identical τ.
func (m *Model) uniformSlotStats(tau float64, n int) SlotStats {
	allIdle := math.Pow(1-tau, float64(n))
	psucc := float64(n) * tau * math.Pow(1-tau, float64(n-1))
	ptr := 1 - allIdle
	tm := m.Timing
	tslot := allIdle*tm.Slot + psucc*tm.Ts + (ptr-psucc)*tm.Tc
	st := SlotStats{Ptr: ptr, PsuccSlot: psucc, Tslot: tslot}
	if ptr > 0 {
		st.Ps = num.Clamp(psucc/ptr, 0, 1)
	}
	if tslot > 0 {
		st.Throughput = psucc * tm.Payload / tslot
	}
	return st
}

// SolveDeviation computes the operating point when one node (index 0 in
// the returned solution) uses wDev while the remaining n−1 nodes use
// wBase. Exploiting the two-class symmetry reduces the system to two
// unknowns, which matters because deviation analyses sweep wDev over the
// whole strategy space. Solved points are memoized in the process-wide
// cache (see cache.go); a cached result is bit-identical to the direct
// solve.
func (m *Model) SolveDeviation(wDev, wBase, n int) (*Solution, error) {
	if n < 2 {
		return nil, fmt.Errorf("bianchi: deviation analysis needs n >= 2, got %d", n)
	}
	if wDev < 1 || wBase < 1 {
		return nil, fmt.Errorf("bianchi: CW values (%d, %d) must be >= 1", wDev, wBase)
	}
	if wDev == wBase {
		return m.SolveUniform(wBase, n)
	}
	key := m.deviationKey(wDev, wBase, n)
	if pt, ok := sharedCache.lookup(key); ok {
		return deviationSolution(wDev, wBase, n, pt), nil
	}
	sol, err := m.solveDeviationUncached(wDev, wBase, n)
	if err != nil {
		return nil, err
	}
	sharedCache.store(key, cachedPoint{
		tauDev:  sol.Tau[0],
		tauBase: sol.Tau[1],
		pDev:    sol.P[0],
		pBase:   sol.P[1],
		stats:   sol.SlotStats,
		iters:   sol.Iterations,
	})
	return sol, nil
}

// solveDeviationUncached performs the actual two-class solve;
// SolveDeviation wraps it with memoization. Callers guarantee n >= 2 and
// wDev != wBase.
func (m *Model) solveDeviationUncached(wDev, wBase, n int) (*Solution, error) {
	// Unknowns x = [τ_dev, τ_base].
	iterate := func(in, out []float64) {
		tDev := num.Clamp(in[0], 0, 1)
		tBase := num.Clamp(in[1], 0, 1)
		oBase := math.Pow(1-tBase, float64(n-2))
		pDev := 1 - oBase*(1-tBase) // all n−1 base nodes
		pBase := 1 - (1-tDev)*oBase // deviator + n−2 peers
		out[0] = m.Tau(wDev, num.Clamp(pDev, 0, 1))
		out[1] = m.Tau(wBase, num.Clamp(pBase, 0, 1))
	}
	x := []float64{m.Tau(wDev, 0), m.Tau(wBase, 0)}
	iters, err := num.FixedPoint(iterate, x, 0.5, num.Options{Tol: 1e-13, MaxIter: 2000})
	if err != nil {
		return nil, fmt.Errorf("bianchi: deviation solve (dev=%d, base=%d, n=%d): %w", wDev, wBase, n, err)
	}
	tDev, tBase := x[0], x[1]
	oBase := math.Pow(1-tBase, float64(n-2))
	pDev := num.Clamp(1-oBase*(1-tBase), 0, 1)
	pBase := num.Clamp(1-(1-tDev)*oBase, 0, 1)

	sol := &Solution{
		W:          append([]int{wDev}, backoff.Uniform(wBase, n-1)...),
		Tau:        append([]float64{tDev}, uniformFloats(tBase, n-1)...),
		P:          append([]float64{pDev}, uniformFloats(pBase, n-1)...),
		Iterations: iters,
	}
	sol.SlotStats = m.slotStats(sol.Tau)
	return sol, nil
}

// OptimalTauCondition evaluates the paper's Appendix-B first-order
// condition for the symmetric utility maximizer (with the e ≪ g
// approximation), corrected for the obvious misprint (+Tc, not −Tc):
//
//	Q(τ) = (1−τ)^n σ − [nτ + (1−τ)^n]·Tc + Tc
//
// Q is strictly decreasing with Q(0) = σ > 0 and Q(1) = −(n−1)Tc < 0, so
// it has a unique root τ_c* in (0, 1) — the transmission probability of
// the efficient NE.
func (m *Model) OptimalTauCondition(n int) func(float64) float64 {
	tm := m.Timing
	fn := float64(n)
	return func(tau float64) float64 {
		idle := math.Pow(1-tau, fn)
		return idle*tm.Slot - (fn*tau+idle)*tm.Tc + tm.Tc
	}
}

// OptimalTau solves Q(τ) = 0 for the unique maximizer τ_c* of the
// symmetric per-node utility in the e ≪ g limit (paper Lemma 3).
func (m *Model) OptimalTau(n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("bianchi: OptimalTau needs n >= 2, got %d", n)
	}
	root, err := num.Brent(m.OptimalTauCondition(n), 1e-9, 1-1e-9, num.Options{Tol: 1e-14})
	if err != nil {
		return 0, fmt.Errorf("bianchi: OptimalTau(n=%d): %w", n, err)
	}
	return root, nil
}

func uniformFloats(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
