package stats

import (
	"math"
	"testing"
	"testing/quick"

	"selfishmac/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %g, want 5", w.Mean())
	}
	if !almostEq(w.Variance(), 32.0/7, 1e-12) {
		t.Errorf("sample variance = %g, want 32/7", w.Variance())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %g/%g, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Fatalf("single sample: mean=%g var=%g, want 3, 0", w.Mean(), w.Variance())
	}
}

// Property: Welford agrees with the two-pass formulas on random data.
func TestWelfordMatchesTwoPassProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		r := rng.New(seed)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = r.UniformRange(-100, 100)
			w.Add(xs[i])
		}
		return almostEq(w.Mean(), Mean(xs), 1e-9) &&
			almostEq(w.Variance(), Variance(xs), 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordSnapshotString(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(2)
	s := w.Snapshot()
	if s.N != 2 || s.Mean != 1.5 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMeanSumVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if !almostEq(Variance(xs), 5.0/3, 1e-12) {
		t.Errorf("Variance = %g, want 5/3", Variance(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice aggregates should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = (%g, %g), want (-1, 7)", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax(nil) did not panic")
		}
	}()
	MinMax(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, tc := range cases {
		if got := Quantile(xs, tc.q); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Quantile mutated its input")
	}
	if Median(xs) != 3 {
		t.Errorf("Median = %g", Median(xs))
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(q=%g) did not panic", q)
				}
			}()
			Quantile([]float64{1}, q)
		}()
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{5, 1, 3, 2, 4}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, 1}, 0},
		{[]float64{2, 2, 9}, 2},
	}
	for _, tc := range cases {
		in := append([]float64(nil), tc.xs...)
		if got := Median(in); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
		// Input must not be mutated.
		for i := range in {
			if in[i] != tc.xs[i] {
				t.Fatalf("Median mutated its input: %v -> %v", tc.xs, in)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Median of an empty slice did not panic")
		}
	}()
	Median(nil)
}

func TestRelErr(t *testing.T) {
	if RelErr(110, 100) != 0.1 {
		t.Errorf("RelErr(110,100) = %g", RelErr(110, 100))
	}
	if RelErr(0.5, 0) != 0.5 {
		t.Errorf("RelErr(0.5,0) = %g", RelErr(0.5, 0))
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !almostEq(got, 1, 1e-12) {
		t.Errorf("equal shares index = %g, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almostEq(got, 0.25, 1e-12) {
		t.Errorf("monopoly index = %g, want 1/n = 0.25", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero index = %g, want 1", got)
	}
	// Intermediate case: (1+3)^2 / (2*(1+9)) = 16/20 = 0.8.
	if got := JainIndex([]float64{1, 3}); !almostEq(got, 0.8, 1e-12) {
		t.Errorf("index = %g, want 0.8", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("JainIndex(nil) did not panic")
		}
	}()
	JainIndex(nil)
}
