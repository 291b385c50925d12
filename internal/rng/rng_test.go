package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	var s Source
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		s.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 100; i++ {
			if got, want := s.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Reseed diverged from New: %d != %d", seed, i, got, want)
			}
		}
	}
	// Reseeding a used source fully resets it.
	s.Reseed(7)
	s.Uint64()
	s.Reseed(7)
	if got, want := s.Uint64(), New(7).Uint64(); got != want {
		t.Fatalf("Reseed of a used source did not reset: %d != %d", got, want)
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams from distinct seeds collided %d/1000 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.State() == ([4]uint64{}) {
		t.Fatal("seed 0 produced the invalid all-zero state")
	}
	// The stream must not be constant.
	if r.Uint64() == r.Uint64() {
		t.Fatal("seed 0 produced a constant stream")
	}
}

func TestNewFromState(t *testing.T) {
	r := New(7)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	st := r.State()
	clone, err := NewFromState(st)
	if err != nil {
		t.Fatalf("NewFromState: %v", err)
	}
	for i := 0; i < 100; i++ {
		if got, want := clone.Uint64(), r.Uint64(); got != want {
			t.Fatalf("draw %d after restore: %d != %d", i, got, want)
		}
	}
}

func TestNewFromStateRejectsZero(t *testing.T) {
	if _, err := NewFromState([4]uint64{}); err == nil {
		t.Fatal("NewFromState accepted the all-zero state")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %g by more than 5 sigma", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if got, want := recover(), "rng: Intn called with n = 0"; got != want {
			t.Fatalf("Intn(0) panicked with %v, want %q", got, want)
		}
	}()
	New(1).Intn(0)
}

func TestUniformRange(t *testing.T) {
	r := New(8)
	for i := 0; i < 10000; i++ {
		v := r.UniformRange(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("UniformRange(-3,5) = %g out of range", v)
		}
	}
	// Degenerate range is allowed and returns lo.
	if v := r.UniformRange(2, 2); v != 2 {
		t.Fatalf("UniformRange(2,2) = %g, want 2", v)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestSplitDecorrelated(t *testing.T) {
	parent := New(12)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("parent and split child collided %d/1000 times", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	a := New(13).Split()
	b := New(13).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not reproducible for equal parents")
		}
	}
}

// Property: Intn always lands inside its bound for arbitrary seeds/bounds.
func TestIntnProperty(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: State/NewFromState round-trips exactly for arbitrary seeds.
func TestStateRoundTripProperty(t *testing.T) {
	f := func(seed uint64, skip uint8) bool {
		r := New(seed)
		for i := 0; i < int(skip); i++ {
			r.Uint64()
		}
		clone, err := NewFromState(r.State())
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			if clone.Uint64() != r.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Float64()
	}
	_ = sink
}

// TestKnownAnswers pins the stream itself. The engines and their
// reference loops draw from the same Source, so the differential matrix
// cannot see a changed stream; these values can. Intn(3<<61) rejects
// about 27% of raw draws, so its row covers the rejection loop too.
func TestKnownAnswers(t *testing.T) {
	r := New(1)
	for i, want := range []uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514} {
		if got := r.Uint64(); got != want {
			t.Errorf("New(1) Uint64 #%d = %#x, want %#x", i, got, want)
		}
	}
	r = New(1)
	for i, want := range []int{4862482185039029833, 3600135425474452695, 3971392844820634087, 2707026963971079518} {
		if got := r.Intn(3 << 61); got != want {
			t.Errorf("New(1) Intn(3<<61) #%d = %d, want %d", i, got, want)
		}
	}
	r = New(1)
	for _, c := range []struct{ n, want int }{{math.MaxInt64, 6483309580052039777}, {26, 13}, {879, 504}} {
		if got := r.Intn(c.n); got != c.want {
			t.Errorf("New(1) Intn(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if got, want := r.Float64(), 0.39132860204190445; got != want {
		t.Errorf("New(1) Float64 after three Intn = %v, want %v", got, want)
	}
}
