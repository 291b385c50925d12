package num

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBisectSimpleRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := Bisect(f, 0, 2, Options{})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-9 {
		t.Fatalf("root = %.12f, want sqrt(2)", root)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	root, err := Bisect(f, 0, 1, Options{})
	if err != nil || root != 0 {
		t.Fatalf("root = %v err = %v, want 0, nil", root, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, Options{}); !errors.Is(err, ErrBracket) {
		t.Fatalf("err = %v, want ErrBracket", err)
	}
}

func TestBrentMatchesKnownRoots(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"sqrt2", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cos", math.Cos, 1, 2, math.Pi / 2},
		{"cubic", func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{"exp", func(x float64) float64 { return math.Exp(x) - 3 }, 0, 2, math.Log(3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root, err := Brent(tc.f, tc.a, tc.b, Options{})
			if err != nil {
				t.Fatalf("Brent: %v", err)
			}
			if math.Abs(root-tc.want) > 1e-9 {
				t.Fatalf("root = %.12f, want %.12f", root, tc.want)
			}
		})
	}
}

func TestBrentNoBracket(t *testing.T) {
	if _, err := Brent(func(x float64) float64 { return 1 + x*x }, -1, 1, Options{}); !errors.Is(err, ErrBracket) {
		t.Fatalf("err = %v, want ErrBracket", err)
	}
}

// Property: for random monotone linear functions crossing zero inside the
// interval, both root finders agree with the analytic root.
func TestRootFindersProperty(t *testing.T) {
	f := func(slope, offset uint16) bool {
		m := 0.1 + float64(slope%1000)/100 // positive slope
		c := -m * (0.1 + float64(offset%800)/100)
		lin := func(x float64) float64 { return m*x + c }
		want := -c / m // in (0, ~8.1)
		rb, err1 := Bisect(lin, -1, 10, Options{})
		rr, err2 := Brent(lin, -1, 10, Options{})
		return err1 == nil && err2 == nil &&
			math.Abs(rb-want) < 1e-8 && math.Abs(rr-want) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedPointScalarContraction(t *testing.T) {
	// x = cos(x) has the Dottie number as unique fixed point.
	x := []float64{0.5}
	f := func(in, out []float64) { out[0] = math.Cos(in[0]) }
	iters, err := FixedPoint(f, x, 1, Options{})
	if err != nil {
		t.Fatalf("FixedPoint: %v (after %d iters)", err, iters)
	}
	if math.Abs(x[0]-0.7390851332151607) > 1e-9 {
		t.Fatalf("fixed point = %.12f, want Dottie number", x[0])
	}
}

func TestFixedPointDampingStabilizes(t *testing.T) {
	// x = 3.5 - x oscillates forever undamped but converges to 1.75 damped.
	f := func(in, out []float64) { out[0] = 3.5 - in[0] }
	x := []float64{0}
	if _, err := FixedPoint(f, x, 1, Options{MaxIter: 100}); err == nil {
		t.Fatal("undamped iteration on an oscillating map should not converge")
	}
	x[0] = 0
	if _, err := FixedPoint(f, x, 0.5, Options{}); err != nil {
		t.Fatalf("damped FixedPoint: %v", err)
	}
	if math.Abs(x[0]-1.75) > 1e-9 {
		t.Fatalf("fixed point = %g, want 1.75", x[0])
	}
}

func TestFixedPointVectorSystem(t *testing.T) {
	// x = 0.5*y + 0.1, y = 0.5*x + 0.1  =>  x = y = 0.2
	f := func(in, out []float64) {
		out[0] = 0.5*in[1] + 0.1
		out[1] = 0.5*in[0] + 0.1
	}
	x := []float64{0, 1}
	if _, err := FixedPoint(f, x, 1, Options{}); err != nil {
		t.Fatalf("FixedPoint: %v", err)
	}
	if math.Abs(x[0]-0.2) > 1e-9 || math.Abs(x[1]-0.2) > 1e-9 {
		t.Fatalf("fixed point = %v, want [0.2 0.2]", x)
	}
}

func TestFixedPointRejectsBadDamping(t *testing.T) {
	f := func(in, out []float64) { out[0] = in[0] }
	for _, d := range []float64{0, -1, 1.5} {
		if _, err := FixedPoint(f, []float64{1}, d, Options{}); err == nil {
			t.Errorf("damping %g accepted", d)
		}
	}
}

func TestGoldenMax(t *testing.T) {
	f := func(x float64) float64 { return -(x - 3) * (x - 3) }
	x, err := GoldenMax(f, 0, 10, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("GoldenMax: %v", err)
	}
	if math.Abs(x-3) > 1e-8 {
		t.Fatalf("maximizer = %g, want 3", x)
	}
}

func TestGoldenMaxReversedInterval(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(x) }
	x, err := GoldenMax(f, 3, 0, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("GoldenMax: %v", err)
	}
	// Near a flat maximum, function values are indistinguishable within
	// sqrt(machine epsilon) of the peak, so 1e-6 is the honest tolerance.
	if math.Abs(x-math.Pi/2) > 1e-6 {
		t.Fatalf("maximizer = %g, want pi/2", x)
	}
}

func TestGridGoldenMaxMultimodal(t *testing.T) {
	// A positive hump near x=2 plus a slow rise toward 0 from below for
	// large x — the shape that defeats plain golden section.
	f := func(x float64) float64 {
		hump := 3 * math.Exp(-(x-2)*(x-2))
		tail := -5 / (1 + x)
		return hump + tail
	}
	x, err := GridGoldenMax(f, 0, 100, 64, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-2.23) > 0.15 { // analytic max near 2.2
		t.Fatalf("maximizer = %g, want near 2.2", x)
	}
	// Plain golden section on the same function lands on the tail.
	xg, err := GoldenMax(f, 0, 100, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if f(xg) >= f(x) {
		t.Skip("golden section happened to find the hump; grid variant still correct")
	}
}

func TestGridGoldenMaxUnimodalMatchesGolden(t *testing.T) {
	f := func(x float64) float64 { return -(x - 3) * (x - 3) }
	xGrid, err := GridGoldenMax(f, 0, 10, 16, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(xGrid-3) > 1e-6 {
		t.Fatalf("maximizer = %g, want 3", xGrid)
	}
}

func TestGridGoldenMaxValidation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := GridGoldenMax(f, 0, 1, 2, Options{}); err == nil {
		t.Fatal("2 grid points accepted")
	}
	// Reversed interval is normalized.
	x, err := GridGoldenMax(func(x float64) float64 { return -x * x }, 5, -5, 11, Options{Tol: 1e-9})
	if err != nil || math.Abs(x) > 1e-6 {
		t.Fatalf("x = %g err = %v", x, err)
	}
}

func TestArgmaxInt(t *testing.T) {
	f := func(w int) float64 { return -float64((w - 37) * (w - 37)) }
	w, v, err := ArgmaxInt(f, 1, 100)
	if err != nil {
		t.Fatalf("ArgmaxInt: %v", err)
	}
	if w != 37 || v != 0 {
		t.Fatalf("argmax = (%d, %g), want (37, 0)", w, v)
	}
}

func TestArgmaxIntTiesPickSmallest(t *testing.T) {
	f := func(w int) float64 { return 1 }
	w, _, err := ArgmaxInt(f, 5, 10)
	if err != nil || w != 5 {
		t.Fatalf("argmax = %d err = %v, want 5, nil", w, err)
	}
}

func TestArgmaxIntEmptyRange(t *testing.T) {
	if _, _, err := ArgmaxInt(func(int) float64 { return 0 }, 3, 2); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestArgmaxIntCoarseMatchesExhaustive(t *testing.T) {
	peaks := []int{1, 2, 17, 500, 999, 1000}
	for _, peak := range peaks {
		p := peak
		f := func(w int) float64 { return -math.Abs(float64(w - p)) }
		wCoarse, _, err := ArgmaxIntCoarse(f, 1, 1000, 25)
		if err != nil {
			t.Fatalf("peak %d: %v", p, err)
		}
		wExact, _, _ := ArgmaxInt(f, 1, 1000)
		if wCoarse != wExact {
			t.Errorf("peak %d: coarse argmax %d != exact %d", p, wCoarse, wExact)
		}
	}
}

// Property: on unimodal tent functions with arbitrary peaks, the coarse
// argmax equals the true peak for any stride.
func TestArgmaxIntCoarseProperty(t *testing.T) {
	f := func(peakRaw, strideRaw uint16) bool {
		peak := 1 + int(peakRaw%2000)
		stride := 1 + int(strideRaw%100)
		tent := func(w int) float64 { return -math.Abs(float64(w - peak)) }
		got, _, err := ArgmaxIntCoarse(tent, 1, 2000, stride)
		return err == nil && got == peak
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSecondDerivative(t *testing.T) {
	if d := SecondDerivative(func(x float64) float64 { return x * x }, 1); math.Abs(d-2) > 1e-3 {
		t.Fatalf("d2/dx2 x^2 = %g, want 2", d)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tc := range cases {
		if got := Clamp(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%g,%g,%g) = %g, want %g", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestGeomSeriesSum(t *testing.T) {
	cases := []struct {
		x    float64
		m    int
		want float64
	}{
		{0.5, 1, 1},
		{0.5, 2, 1.5},
		{0.5, 3, 1.75},
		{1, 5, 5},   // singular point of the closed form
		{2, 3, 7},   // 1+2+4
		{0, 4, 1},   // only r=0 term
		{0.3, 0, 0}, // empty sum
	}
	for _, tc := range cases {
		if got := GeomSeriesSum(tc.x, tc.m); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("GeomSeriesSum(%g,%d) = %g, want %g", tc.x, tc.m, got, tc.want)
		}
	}
}

// Property: GeomSeriesSum agrees with the closed form away from x=1.
func TestGeomSeriesSumProperty(t *testing.T) {
	f := func(xRaw uint16, mRaw uint8) bool {
		x := float64(xRaw%180) / 100 // [0, 1.79]
		if math.Abs(x-1) < 1e-9 {
			x = 0.5
		}
		m := int(mRaw%12) + 1
		got := GeomSeriesSum(x, m)
		want := (1 - math.Pow(x, float64(m))) / (1 - x)
		return math.Abs(got-want) < 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinspace(t *testing.T) {
	v := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("Linspace = %v, want %v", v, want)
		}
	}
	if last := Linspace(0, math.Pi, 7)[6]; last != math.Pi {
		t.Fatalf("Linspace endpoint = %g, want exactly pi", last)
	}
}
