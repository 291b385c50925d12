package calendar

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"selfishmac/internal/layerbench"
	"selfishmac/internal/rng"
)

// ring_test.go pins the ring against an eager O(n) min-scan over
// slots[] (layerbench.MinScan): driven with the same trajectory —
// re-keys, silent forward shifts, expiry collection, moving limits — the
// ring must report the scan's (slot, expired-set) sequence at any span,
// entries filed wraps ahead included.

// The ring rounds its span up to a power of two, floored at one bitmap
// word and capped at MaxBuckets, whatever the span.
func TestRingBucketSizing(t *testing.T) {
	cases := map[int64]int{-5: 64, 1: 64, 64: 64, 65: 128, 336: 512, 1023: 1024, 1024: 1024, 1025: 2048,
		MaxBuckets: MaxBuckets, MaxBuckets + 1: MaxBuckets, 1 << 62: MaxBuckets, math.MaxInt64: MaxBuckets}
	for span, want := range cases {
		var r Ring
		r.Init(1, span)
		if got := r.Buckets(); got != want {
			t.Errorf("span %d: %d buckets, want %d", span, got, want)
		}
	}
}

// step advances the ring and the scan by one event before limit and
// fails unless both pick the same slot and the same ascending set.
func step(t *testing.T, r *Ring, slots []int64, limit int64, got, want []int) (int64, []int, []int) {
	t.Helper()
	tw, want := layerbench.MinScan(slots, limit, want[:0])
	tg, got := r.Next(slots, limit, got[:0])
	if tg != tw {
		t.Fatalf("ring slot %d, eager scan %d", tg, tw)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slot %d: expired %v, want %v (order must be ascending)", tg, got, want)
	}
	return tg, got, want
}

// TestDifferentialRingMatchesEagerScan is the lockstep property test: expired nodes
// are re-keyed up to eight wraps ahead, live entries are shifted forward
// behind the ring's back (also past a wrap), and the limit moves in
// random strides so it often lands inside an idle gap. The ring must
// agree with the scan at every step, at spans from the 64-bucket floor
// to one that covers every re-key. The shifts pick n/8 random nodes per
// event, or, in the everySurvivor case, shift each surviving node with
// probability 1/4, the churn of a dense carrier-sense neighbourhood.
func TestDifferentialRingMatchesEagerScan(t *testing.T) {
	const rounds = 4000
	for trial, tc := range []struct {
		n             int
		span          int64
		everySurvivor bool
	}{
		{120, 1, false}, {120, 64, false}, {120, 100, false}, {120, 1000, false}, {120, 1 << 13, false},
		{97, 256, true},
	} {
		name := fmt.Sprintf("n%d-span%d", tc.n, tc.span)
		if tc.everySurvivor {
			name += "-every-survivor"
		}
		t.Run(name, func(t *testing.T) {
			n := tc.n
			src := rng.New(uint64(trial) + 7)
			var r Ring
			r.Init(n, tc.span)
			w := int64(r.Buckets())
			slots := make([]int64, n)
			for i := range slots {
				slots[i] = int64(src.Intn(int(8 * w)))
			}
			r.Rebuild(slots)

			var got, want []int
			var now, limit int64
			for round := 0; round < rounds; round++ {
				if now >= limit {
					limit = now + 1 + int64(src.Intn(int(2*w)))
				}
				now, got, want = step(t, &r, slots, limit, got, want)
				if now == limit {
					continue // nothing expired before the limit
				}
				if tc.everySurvivor {
					for j, s := range slots {
						if s > now && src.Intn(4) == 0 {
							slots[j] += int64(src.Intn(int(3 * w / 2)))
						}
					}
				} else {
					for k := 0; k < n/8; k++ {
						if j := src.Intn(n); slots[j] > now {
							slots[j] += int64(src.Intn(int(3 * w / 2)))
						}
					}
				}
				for _, i := range got {
					wraps := int64(src.Intn(9)) // 0..8 wraps ahead
					slots[i] = now + 1 + wraps*w + int64(src.Intn(int(w)))
					r.File(slots[i], int32(i))
				}
				now++
			}
		})
	}
}

// A limit inside an idle gap stops the clock there with every entry
// still filed, and the next call picks up from the limit — here the
// gap spans several wraps of a 64-bucket ring.
func TestRingLimitInsideIdleGap(t *testing.T) {
	slots := []int64{10, 500, 500}
	var r Ring
	r.Init(len(slots), 64)
	r.Rebuild(slots)
	if s, exp := r.Next(slots, 100, nil); s != 10 || !reflect.DeepEqual(exp, []int{0}) {
		t.Fatalf("got (%d, %v), want (10, [0])", s, exp)
	}
	slots[0] = 1000
	r.File(slots[0], 0)
	if s, exp := r.Next(slots, 200, nil); s != 200 || len(exp) != 0 {
		t.Fatalf("limit 200: got (%d, %v), want (200, [])", s, exp)
	}
	if s, exp := r.Next(slots, 1<<62, nil); s != 500 || !reflect.DeepEqual(exp, []int{1, 2}) {
		t.Fatalf("got (%d, %v), want (500, [1 2])", s, exp)
	}
	if s, exp := r.Next(slots, 1<<62, nil); s != 1000 || !reflect.DeepEqual(exp, []int{0}) {
		t.Fatalf("got (%d, %v), want (1000, [0])", s, exp)
	}
	// Nothing is filed any more: the ring runs out at the limit.
	if s, exp := r.Next(slots, 5000, nil); s != 5000 || len(exp) != 0 {
		t.Fatalf("empty ring: got (%d, %v), want (5000, [])", s, exp)
	}
}

// A ring whose nodes all sit past the limit reports the limit, and
// keeps every entry for the next call.
func TestRingAllPastLimit(t *testing.T) {
	slots := []int64{7000, 300, 300, 65}
	var r Ring
	r.Init(len(slots), 64)
	r.Rebuild(slots)
	if s, exp := r.Next(slots, 64, nil); s != 64 || len(exp) != 0 {
		t.Fatalf("got (%d, %v), want (64, [])", s, exp)
	}
	var got []int
	for _, want := range []struct {
		slot int64
		exp  []int
	}{{65, []int{3}}, {300, []int{1, 2}}, {7000, []int{0}}} {
		var s int64
		s, got = r.Next(slots, 1<<62, got[:0])
		if s != want.slot || !reflect.DeepEqual(got, want.exp) {
			t.Fatalf("got (%d, %v), want (%d, %v)", s, got, want.slot, want.exp)
		}
	}
}

// Entries exabytes of slots apart on a 64-bucket ring: each call walks
// one wrap, re-files every entry at its true slot and jumps to the
// earliest, so the clock never steps through the gap wrap by wrap. A
// limit inside the gap stops the jump there.
func TestRingJumpsHugeGap(t *testing.T) {
	slots := []int64{1 << 61, 3 << 58, 1 << 61}
	var r Ring
	r.Init(len(slots), 64)
	r.Rebuild(slots)
	var got []int
	for _, want := range []struct {
		limit, slot int64
		exp         []int
	}{{1 << 50, 1 << 50, nil}, {1 << 62, 3 << 58, []int{1}}, {1 << 62, 1 << 61, []int{0, 2}}} {
		var s int64
		s, got = r.Next(slots, want.limit, got[:0])
		if s != want.slot || len(got) != len(want.exp) || len(got) > 0 && !reflect.DeepEqual(got, want.exp) {
			t.Fatalf("limit %d: got (%d, %v), want (%d, %v)", want.limit, s, got, want.slot, want.exp)
		}
	}
}

// Rebuild and Next allocate nothing once the ring and the output slice
// are sized, wrapping entries included.
func TestRingAllocationFree(t *testing.T) {
	const n = 50
	src := rng.New(3)
	start := make([]int64, n)
	for i := range start {
		start[i] = int64(src.Intn(1000))
	}
	slots := make([]int64, n)
	var r Ring
	r.Init(n, 64)
	out := make([]int, 0, n)
	if allocs := testing.AllocsPerRun(10, func() {
		copy(slots, start)
		r.Rebuild(slots)
		for now := int64(0); now < 5000; {
			now, out = r.Next(slots, 5000, out[:0])
			for _, i := range out {
				slots[i] += 977 // fifteen wraps ahead
				r.File(slots[i], int32(i))
			}
		}
	}); allocs != 0 {
		t.Fatalf("Rebuild+Next allocated %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkEventSelection times the ring on the engines' event-selection
// workload: find the next event, collect its expired set in ascending
// node order, re-key the expired.
//
// The ring-n* cases are the multihop engine's dense regime: fire slots
// from a fixed horizon the ring covers, each event expiring O(1) nodes
// however large the population, plus a few lazy freeze shifts per event
// so the stale-repair cost is in the measurement. The sparse case is the
// single-collision-domain engine's regime: 20 nodes at CW 336 on a ring
// sized to the stage-0 window, colliding nodes doubling their window up
// to stage 6 so backed-off draws wrap it, and long idle gaps between
// events for the bitmap to skip.
func BenchmarkEventSelection(b *testing.B) {
	for _, n := range []int{1000, 5000, 10000} {
		b.Run(fmt.Sprintf("ring-n%d", n), func(b *testing.B) {
			const span = 4096
			var src rng.Source
			src.Reseed(7)
			slots := make([]int64, n)
			for i := range slots {
				slots[i] = int64(src.Intn(span))
			}
			var r Ring
			r.Init(n, span)
			r.Rebuild(slots)
			expired := make([]int, 0, n)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				var t int64
				t, expired = r.Next(slots, 1<<62, expired[:0])
				for _, i := range expired {
					slots[i] = t + 1 + int64(src.Intn(span-64))
					r.File(slots[i], int32(i))
				}
				for j := 0; j < 8; j++ {
					if i := src.Intn(n); slots[i] > t && slots[i]+63 < t+span {
						slots[i] += int64(src.Intn(64))
					}
				}
			}
		})
	}
	b.Run("sparse-n20-w336", func(b *testing.B) {
		const (
			n, cw    = 20, 336
			maxStage = 6
		)
		var src rng.Source
		src.Reseed(7)
		slots := make([]int64, n)
		stage := make([]int, n)
		for i := range slots {
			slots[i] = int64(src.Intn(cw))
		}
		var r Ring
		r.Init(n, cw)
		r.Rebuild(slots)
		expired := make([]int, 0, n)
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			var t int64
			t, expired = r.Next(slots, 1<<62, expired[:0])
			for _, i := range expired {
				if len(expired) == 1 {
					stage[i] = 0
				} else if stage[i] < maxStage {
					stage[i]++
				}
				slots[i] = t + 1 + int64(src.Intn(cw<<stage[i]))
				r.File(slots[i], int32(i))
			}
		}
	})
}
