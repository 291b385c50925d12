// Package stats provides the descriptive statistics the experiment harness
// reports: streaming moments (Welford), quantiles, confidence intervals,
// and simple aggregation over slices.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates count, mean and variance in a single numerically
// stable pass. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge folds another accumulator into w using the pairwise combination
// of Chan, Golub & LeVeque, so moments accumulated over disjoint splits
// of a sample agree with the single-stream result up to rounding. It is
// the building block of the parallel replication controller
// (internal/replicate): per-replica moments merge in a fixed order,
// making the merged statistics independent of worker count.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	nA, nB := float64(w.n), float64(o.n)
	total := nA + nB
	delta := o.mean - w.mean
	w.mean += delta * nB / total
	w.m2 += o.m2 + delta*delta*nA*nB/total
	w.n += o.n
}

// N returns the number of samples.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest sample (0 for an empty accumulator).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample (0 for an empty accumulator).
func (w *Welford) Max() float64 { return w.max }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of an approximate 95% normal confidence
// interval on the mean.
func (w *Welford) CI95() float64 { return 1.96 * w.StdErr() }

// Summary is a value snapshot of a Welford accumulator, convenient for
// returning from measurement functions.
type Summary struct {
	N        int
	Mean     float64
	Variance float64
	StdDev   float64
	Min      float64
	Max      float64
	CI95     float64
}

// Snapshot returns the accumulator's summary.
func (w *Welford) Snapshot() Summary {
	return Summary{
		N:        w.n,
		Mean:     w.Mean(),
		Variance: w.Variance(),
		StdDev:   w.StdDev(),
		Min:      w.min,
		Max:      w.max,
		CI95:     w.CI95(),
	}
}

// String renders the summary as "mean ± ci95 (n=..)".
func (s Summary) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", s.Mean, s.CI95, s.N)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for len < 2).
func Variance(xs []float64) float64 {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Variance()
}

// MinMax returns the extrema of xs. It panics on empty input because a
// min/max of nothing is a programming error at every call site here.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax on empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It does not modify xs.
// It panics on empty input or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile on empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q = %g outside [0, 1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) for a
// non-negative allocation vector: 1 means perfectly equal shares, 1/n
// means one node takes everything. It panics on empty input; an all-zero
// allocation returns 1 (vacuously fair).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: JainIndex on empty slice")
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// RelErr returns |got-want|/|want|, or |got| when want == 0.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
