package multihop

import (
	"math"
	"reflect"
	"testing"

	"selfishmac/internal/calendar"
	"selfishmac/internal/phy"
	"selfishmac/internal/rng"
)

// firering_test.go pins the engine's use of the event calendar
// (internal/calendar) against an eager O(n) min-scan over fire[]: driven
// with the same fire-slot trajectory — re-keys, silent forward shifts
// (carrier freezes), expiry collection — the ring must report the scan's
// (slot, expired-set) sequence. The trajectories respect the engine's
// horizon bound (no fire slot more than span-1 slots past the current
// event slot); the calendar's own tests cover entries filed wraps ahead.

// TestNextPow2 keeps the name of the test for the sizing helper the
// engine-local ring had: the ring now rounds the engine's span up to a
// power of two, floored at one bitmap word and capped at MaxBuckets.
func TestNextPow2(t *testing.T) {
	cases := map[int64]int{-5: 64, 1: 64, 64: 64, 65: 128, 336: 512, 1023: 1024, 1024: 1024, 1025: 2048,
		calendar.MaxBuckets: calendar.MaxBuckets, calendar.MaxBuckets + 1: calendar.MaxBuckets,
		1 << 62: calendar.MaxBuckets, math.MaxInt64: calendar.MaxBuckets}
	for span, want := range cases {
		var ring calendar.Ring
		ring.Init(1, span)
		if got := ring.Buckets(); got != want {
			t.Errorf("span %d: %d buckets, want %d", span, got, want)
		}
	}
}

// TestFireCalendarSelection pins the engine's calendar route: every
// fire-slot horizon runs on the ring — sized to the horizon, or capped
// and wrapping past MaxBuckets, including windows whose cw << MaxStage
// would overflow — and equals SimulateReference.
func TestFireCalendarSelection(t *testing.T) {
	nw := &fixedGraph{adj: [][]int{{1}, {0}}}
	// MaxStage 6: the ring holds cw << 6 plus one frame time.
	for _, tc := range []struct {
		cw      int
		buckets int
	}{
		{16, 2048},
		{calendar.MaxBuckets>>6 - 64, calendar.MaxBuckets},
		{calendar.MaxBuckets>>6 + 1, calendar.MaxBuckets},
		{1 << 40, calendar.MaxBuckets},
		{math.MaxInt, calendar.MaxBuckets},
	} {
		cfg := simCfg(phy.RTSCTS, []int{tc.cw, 16}, 1e5, 1)
		sim, err := NewSimulator(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.st.cal.Buckets(); got != tc.buckets {
			t.Errorf("cw %d: ring has %d buckets, want %d", tc.cw, got, tc.buckets)
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := SimulateReference(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cw %d: ring diverged from SimulateReference", tc.cw)
		}
	}
}

// minScan is the eager reference: the minimum fire slot and every node
// at it, ascending.
func minScan(fire []int64, expired []int) (int64, []int) {
	t := fire[0]
	for _, f := range fire[1:] {
		if f < t {
			t = f
		}
	}
	for i, f := range fire {
		if f == t {
			expired = append(expired, i)
		}
	}
	return t, expired
}

// stepAgainstScan advances ring and the eager scan by one event before
// limit and fails unless both pick the same slot and the same ascending
// expired set. Past the last event before limit the ring must report
// (limit, none), the scan's minimum lying at or beyond limit.
func stepAgainstScan(t *testing.T, ring *calendar.Ring, fire []int64, limit int64, got, want []int) (int64, []int, []int) {
	t.Helper()
	var tw, tg int64
	tw, want = minScan(fire, want[:0])
	tg, got = ring.Next(fire, limit, got[:0])
	if tw >= limit {
		tw, want = limit, want[:0]
	}
	if tg != tw {
		t.Fatalf("ring slot %d, eager scan %d", tg, tw)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slot %d: expired %v, want %v (order must be ascending)", tg, got, want)
	}
	return tg, got, want
}

// TestFireRingMatchesEagerScan is the calendar's lockstep property test:
// under randomized engine-shaped churn — fire slots shifted forward
// without touching the ring, exactly how the engine applies carrier-sense
// holds — the lazy-repair ring must select the same event slot and the
// same ascending expired set as the eager scan, at several horizons.
func TestFireRingMatchesEagerScan(t *testing.T) {
	const (
		n      = 150
		rounds = 3000
	)
	for trial, span := range []int64{2, 64, 900, 4096} {
		src := rng.New(uint64(trial) + 101)
		fire := make([]int64, n)
		for i := range fire {
			fire[i] = int64(src.Intn(int(span)))
		}
		var ring calendar.Ring
		ring.Init(n, span)
		ring.Rebuild(fire)

		var got, want []int
		for round := 0; round < rounds; round++ {
			var tw int64
			tw, got, want = stepAgainstScan(t, &ring, fire, 1<<62, got, want)
			// Freeze-shift a random subset of the other nodes forward
			// without telling the ring, staying inside the horizon.
			for k := 0; k < n/4; k++ {
				j := src.Intn(n)
				if fire[j] <= tw {
					continue // expired, re-keyed below
				}
				if shifted := fire[j] + int64(src.Intn(40)); shifted <= tw+span-1 {
					fire[j] = shifted
				}
			}
			// Re-key the expired nodes, engine-style: resume strictly
			// later with a fresh counter inside the horizon.
			for _, i := range got {
				fire[i] = tw + 1 + int64(src.Intn(int(span-1)))
				ring.File(fire[i], int32(i))
			}
		}
	}
}

// TestFireHeapLazyShiftMatchesEagerScan keeps the name and the churn
// regime of the property test first written for the binary-heap
// calendar the ring replaced: every surviving node is freeze-shifted
// with probability 1/4 each event, without touching the calendar, and
// expired nodes are re-keyed up to 128 slots ahead. Shifts are clamped
// to the ring's horizon, the bound the engine guarantees.
func TestFireHeapLazyShiftMatchesEagerScan(t *testing.T) {
	const (
		n      = 97
		rounds = 2000
		span   = int64(256)
	)
	var src rng.Source
	src.Reseed(42)
	fire := make([]int64, n)
	for i := range fire {
		fire[i] = int64(src.Intn(64))
	}
	var ring calendar.Ring
	ring.Init(n, span)
	ring.Rebuild(fire)

	var got, want []int
	for r := 0; r < rounds; r++ {
		var t0 int64
		t0, got, want = stepAgainstScan(t, &ring, fire, 1<<62, got, want)
		for _, i := range got {
			fire[i] = t0 + 1 + int64(src.Intn(128))
			ring.File(fire[i], int32(i))
		}
		for i := 0; i < n; i++ {
			if fire[i] > t0 && src.Intn(4) == 0 {
				fire[i] = min(fire[i]+int64(src.Intn(32)), t0+span-1)
			}
		}
	}
}

// TestFireRingMatchesHeapTrajectory keeps the name of the ring-vs-heap
// lockstep test from when a heap calendar served wide spans; the heap
// is gone and the eager scan stands in as the oracle. Each trial runs a
// horizon-900 trajectory until the next event lies past the limit, so
// the ring's limit stop is checked at the end of every trial.
func TestFireRingMatchesHeapTrajectory(t *testing.T) {
	const (
		n     = 150
		span  = int64(900)
		limit = int64(250000)
	)
	for trial := uint64(0); trial < 8; trial++ {
		src := rng.New(trial + 101)
		fire := make([]int64, n)
		for i := range fire {
			fire[i] = int64(src.Intn(int(span)))
		}
		var ring calendar.Ring
		ring.Init(n, span)
		ring.Rebuild(fire)

		var got, want []int
		for {
			var t0 int64
			t0, got, want = stepAgainstScan(t, &ring, fire, limit, got, want)
			if t0 >= limit {
				break
			}
			for k := 0; k < n/8; k++ {
				j := src.Intn(n)
				if fire[j] > t0 {
					fire[j] = min(fire[j]+int64(src.Intn(40)), t0+span-1)
				}
			}
			for _, i := range got {
				fire[i] = t0 + 1 + int64(src.Intn(int(span)-1))
				ring.File(fire[i], int32(i))
			}
		}
	}
}

// The ring must stop at the limit with every entry still filed, and pick
// up from there when the limit moves on.
func TestFireRingRespectsLimit(t *testing.T) {
	fire := []int64{5, 9, 9, 30}
	var ring calendar.Ring
	ring.Init(len(fire), 32)
	ring.Rebuild(fire)
	if slot, exp := ring.Next(fire, 5, nil); slot != 5 || len(exp) != 0 {
		t.Fatalf("limit 5: got (%d, %v), want (5, [])", slot, exp)
	}
	if slot, exp := ring.Next(fire, 100, nil); slot != 5 || !reflect.DeepEqual(exp, []int{0}) {
		t.Fatalf("got (%d, %v), want (5, [0])", slot, exp)
	}
	fire[0] = 40 // re-keyed past node 3
	ring.File(fire[0], 0)
	for _, want := range []struct {
		slot int64
		exp  []int
	}{{9, []int{1, 2}}, {30, []int{3}}, {40, []int{0}}} {
		if slot, exp := ring.Next(fire, 100, nil); slot != want.slot || !reflect.DeepEqual(exp, want.exp) {
			t.Fatalf("got (%d, %v), want (%d, %v)", slot, exp, want.slot, want.exp)
		}
		for _, i := range want.exp {
			fire[i] = 1 << 40 // retire: never filed again
		}
	}
}

// TestFireRingExpiredAscending pins the collection order the engine's
// PRNG-draw contract depends on: whatever order entries were filed in a
// bucket, the expired run comes back in ascending node order.
func TestFireRingExpiredAscending(t *testing.T) {
	const n = 64
	fire := make([]int64, n)
	for i := range fire {
		fire[i] = 7 // everyone expires at once, filed in index order
	}
	var ring calendar.Ring
	ring.Init(n, 64)
	ring.Rebuild(fire)
	slot, expired := ring.Next(fire, 100, nil)
	if slot != 7 {
		t.Fatalf("slot = %d, want 7", slot)
	}
	if len(expired) != n {
		t.Fatalf("collected %d nodes, want %d", len(expired), n)
	}
	for i := 1; i < len(expired); i++ {
		if expired[i-1] >= expired[i] {
			t.Fatalf("expired not ascending at %d: %v", i, expired)
		}
	}
}
