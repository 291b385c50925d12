// Package num implements the numerical methods the analytic model needs:
// scalar root finding (bisection, Brent), damped fixed-point iteration for
// systems, scalar maximization (golden section, integer grid with
// refinement), and numeric differentiation.
//
// The package is deliberately small and dependency-free; it exists because
// the Go ecosystem has no standard numerics library and this repository is
// stdlib-only.
package num

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative method exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("num: no convergence")

// ErrBracket is returned when a root finder is given an interval whose
// endpoints do not bracket a sign change.
var ErrBracket = errors.New("num: endpoints do not bracket a root")

// DefaultTol is the default absolute tolerance used when an options value
// leaves Tol unset.
const DefaultTol = 1e-12

// DefaultMaxIter is the default iteration budget.
const DefaultMaxIter = 200

// Options configures the iterative solvers. The zero value selects
// DefaultTol and DefaultMaxIter.
type Options struct {
	// Tol is the absolute tolerance on the solution.
	Tol float64
	// MaxIter bounds the number of iterations.
	MaxIter int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = DefaultTol
	}
	if o.MaxIter <= 0 {
		o.MaxIter = DefaultMaxIter
	}
	return o
}

// Bisect finds a root of f in [a, b] by bisection. f(a) and f(b) must have
// opposite signs (or one endpoint must already be a root). Bisection is
// slow but unconditionally robust, which suits the monotone fixed-point
// equations of the Bianchi model.
func Bisect(f func(float64) float64, a, b float64, opts Options) (float64, error) {
	o := opts.withDefaults()
	fa, fb := f(a), f(b)
	switch {
	case fa == 0:
		return a, nil
	case fb == 0:
		return b, nil
	case math.IsNaN(fa) || math.IsNaN(fb):
		return 0, fmt.Errorf("num: Bisect: f is NaN at an endpoint: f(%g)=%g f(%g)=%g", a, fa, b, fb)
	case fa*fb > 0:
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrBracket, a, fa, b, fb)
	}
	lo, hi := a, b
	for i := 0; i < o.MaxIter; i++ {
		mid := 0.5 * (lo + hi)
		fm := f(mid)
		if fm == 0 || hi-lo < o.Tol {
			return mid, nil
		}
		if fa*fm < 0 {
			hi = mid
		} else {
			lo, fa = mid, fm
		}
	}
	return 0.5 * (lo + hi), nil // interval already tiny relative to budget
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). It converges superlinearly on
// smooth functions while retaining bisection's robustness.
func Brent(f func(float64) float64, a, b float64, opts Options) (float64, error) {
	o := opts.withDefaults()
	fa, fb := f(a), f(b)
	switch {
	case fa == 0:
		return a, nil
	case fb == 0:
		return b, nil
	case math.IsNaN(fa) || math.IsNaN(fb):
		return 0, fmt.Errorf("num: Brent: f is NaN at an endpoint")
	case fa*fb > 0:
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrBracket, a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < o.MaxIter; i++ {
		if fb == 0 || math.Abs(b-a) < o.Tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		cond := (s < (3*a+b)/4 && s < b) || (s > (3*a+b)/4 && s > b)
		if cond ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < o.Tol) ||
			(!mflag && math.Abs(c-d) < o.Tol) {
			s = 0.5 * (a + b)
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d, c, fc = c, b, fb
		if fa*fs < 0 {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, fmt.Errorf("%w: Brent after %d iterations", ErrNoConvergence, o.MaxIter)
}

// FixedPoint iterates x <- (1-damping)*x + damping*f(x) on a vector until
// the max-norm update falls below tol. It writes the solution into x and
// returns the number of iterations used. damping must be in (0, 1];
// damping = 1 is plain Picard iteration.
func FixedPoint(f func(x, out []float64), x []float64, damping float64, opts Options) (int, error) {
	o := opts.withDefaults()
	if damping <= 0 || damping > 1 {
		return 0, fmt.Errorf("num: FixedPoint: damping %g outside (0, 1]", damping)
	}
	next := make([]float64, len(x))
	for it := 1; it <= o.MaxIter; it++ {
		f(x, next)
		var delta float64
		for i := range x {
			if math.IsNaN(next[i]) {
				return it, fmt.Errorf("num: FixedPoint: NaN at component %d on iteration %d", i, it)
			}
			nx := (1-damping)*x[i] + damping*next[i]
			if d := math.Abs(nx - x[i]); d > delta {
				delta = d
			}
			x[i] = nx
		}
		if delta < o.Tol {
			return it, nil
		}
	}
	return o.MaxIter, fmt.Errorf("%w: FixedPoint after %d iterations", ErrNoConvergence, o.MaxIter)
}

// GoldenMax maximizes a unimodal function on [a, b] by golden-section
// search and returns the maximizer.
func GoldenMax(f func(float64) float64, a, b float64, opts Options) (float64, error) {
	o := opts.withDefaults()
	if b < a {
		a, b = b, a
	}
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < o.MaxIter && b-a > o.Tol; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		}
	}
	return 0.5 * (a + b), nil
}

// GridGoldenMax maximizes a possibly multimodal function on [a, b]: it
// scans an even grid of gridPoints samples to locate the best region,
// then refines with golden-section search between the neighbors of the
// best sample. Unlike GoldenMax it does not require unimodality — it
// finds the global maximum provided the grid resolves the winning mode.
func GridGoldenMax(f func(float64) float64, a, b float64, gridPoints int, opts Options) (float64, error) {
	if gridPoints < 3 {
		return 0, fmt.Errorf("num: GridGoldenMax needs >= 3 grid points, got %d", gridPoints)
	}
	if b < a {
		a, b = b, a
	}
	xs := Linspace(a, b, gridPoints)
	bestI := 0
	bestV := f(xs[0])
	for i := 1; i < len(xs); i++ {
		if v := f(xs[i]); v > bestV {
			bestI, bestV = i, v
		}
	}
	lo, hi := a, b
	if bestI > 0 {
		lo = xs[bestI-1]
	}
	if bestI < len(xs)-1 {
		hi = xs[bestI+1]
	}
	x, err := GoldenMax(f, lo, hi, opts)
	if err != nil {
		return 0, err
	}
	// The refinement must never do worse than the best grid sample.
	if f(x) < bestV {
		return xs[bestI], nil
	}
	return x, nil
}

// ArgmaxInt maximizes f over the integers [lo, hi] by exhaustive
// evaluation and returns the smallest maximizer and the maximum value.
// It returns an error if hi < lo.
func ArgmaxInt(f func(int) float64, lo, hi int) (int, float64, error) {
	if hi < lo {
		return 0, 0, fmt.Errorf("num: ArgmaxInt: empty range [%d, %d]", lo, hi)
	}
	best, bestVal := lo, f(lo)
	for w := lo + 1; w <= hi; w++ {
		if v := f(w); v > bestVal {
			best, bestVal = w, v
		}
	}
	return best, bestVal, nil
}

// ArgmaxIntCoarse maximizes f over the integers [lo, hi] assuming f is
// unimodal: it scans a coarse grid with the given stride, then refines
// exhaustively around the best coarse point. This turns an O(hi-lo) sweep
// into O((hi-lo)/stride + 2*stride) evaluations, which matters when each
// evaluation solves a fixed point. stride < 1 is treated as 1.
func ArgmaxIntCoarse(f func(int) float64, lo, hi, stride int) (int, float64, error) {
	if hi < lo {
		return 0, 0, fmt.Errorf("num: ArgmaxIntCoarse: empty range [%d, %d]", lo, hi)
	}
	if stride < 1 {
		stride = 1
	}
	best, bestVal := lo, f(lo)
	for w := lo + stride; w <= hi; w += stride {
		if v := f(w); v > bestVal {
			best, bestVal = w, v
		}
	}
	// Refine around the coarse winner.
	rlo, rhi := best-stride+1, best+stride-1
	if rlo < lo {
		rlo = lo
	}
	if rhi > hi {
		rhi = hi
	}
	for w := rlo; w <= rhi; w++ {
		if v := f(w); v > bestVal || (v == bestVal && w < best) {
			best, bestVal = w, v
		}
	}
	return best, bestVal, nil
}

// SecondDerivative estimates f”(x) with a central difference.
func SecondDerivative(f func(float64) float64, x float64) float64 {
	h := 1e-4 * math.Max(1, math.Abs(x))
	return (f(x+h) - 2*f(x) + f(x-h)) / (h * h)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// GeomSeriesSum returns sum_{r=0}^{m-1} x^r, handling x == 1 exactly.
// This is the summation form of the (1-x^m)/(1-x) factor in the paper's
// eq. (2), which is singular at x = 1 (i.e. collision probability 1/2).
func GeomSeriesSum(x float64, m int) float64 {
	if m <= 0 {
		return 0
	}
	if x == 1 {
		return float64(m)
	}
	// Direct summation is both accurate and fast for the small m used in
	// 802.11 (m <= ~10); it also avoids cancellation near x = 1.
	sum, term := 1.0, 1.0
	for r := 1; r < m; r++ {
		term *= x
		sum += term
	}
	return sum
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be >= 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic(fmt.Sprintf("num: Linspace needs n >= 2, got %d", n))
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
