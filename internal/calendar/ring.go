// Package calendar is the event calendar both simulators run on: a
// bucket ring holding one absolute expiry slot per node, which hands
// back the next slot's expired nodes in ascending node order.
//
// The ring has W power-of-two buckets. Bucket b holds the nodes filed
// for slots ≡ b (mod W) as an intrusive singly-linked list — a head per
// bucket and one next pointer per node, since every node has exactly one
// live entry — so filing is an O(1) prepend and nothing is allocated
// after Init. An occupancy bitmap, one bit per bucket, lets the clock
// skip idle gaps 64 buckets per word.
//
// The ring is wrap-tolerant: a visited entry whose slots[i] is not the
// slot being scanned is re-filed at slots[i]. That one rule covers both
// ways an entry can surface early: it was filed one or more full wraps
// ahead, or the caller moved slots[i] forward after filing it (a lazy
// shift, such as a carrier-sense freeze). Either way the true slot is
// still ahead, and the re-filed entry surfaces no later than it. So the
// ring is exact at any span; the span passed to Init only sets how many
// buckets it has, and with it how often a far entry is re-filed before
// it expires.
//
// The caller's contract: every filed slot is at or after the scan
// position (the slot after the last event Next returned, or the limit it
// stopped at), and slots[i] only ever moves forward while node i is
// filed.
package calendar

import (
	"math"
	"math/bits"
)

// MaxBuckets caps the ring at 1<<17 buckets (512 KiB of heads). Spans
// past it still run exactly, re-filing far entries once per wrap.
const MaxBuckets = 1 << 17

// minBuckets is one occupancy word.
const minBuckets = 64

// Ring is the bucket-ring calendar. The zero value is unusable; call
// Init first. A Ring is not safe for concurrent use.
type Ring struct {
	head []int32  // bucket -> first node filed there, -1 when empty
	next []int32  // node -> next node in its bucket, -1 at list end
	occ  []uint64 // bit b set iff bucket b is non-empty
	mask int64
	cur  int64 // next slot to scan; every live entry is at a slot >= cur
}

// buckets returns the ring size for a span: the next power of two of
// span clamped to [minBuckets, MaxBuckets].
func buckets(span int64) int64 {
	span = min(max(span, minBuckets), MaxBuckets)
	return int64(1) << bits.Len64(uint64(span-1))
}

// Init sizes the ring for n nodes and a span of slots, reusing the
// backing arrays when they are already large enough. A span covering
// the farthest slot any node is filed ahead of the scan position means
// no entry is ever re-filed for wrapping.
func (r *Ring) Init(n int, span int64) {
	w := buckets(span)
	r.head = resize(r.head, int(w))
	r.occ = resize(r.occ, int(w/64))
	r.next = resize(r.next, n)
	r.mask = w - 1
}

func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Buckets reports the ring's bucket count.
func (r *Ring) Buckets() int { return len(r.head) }

// Rebuild resets the clock to slot 0 and files node i at slots[i] for
// every node, dropping any previous contents. It allocates nothing.
// Nodes are filed in descending order so every bucket's list starts out
// ascending: a fresh run's first events can expire hundreds of nodes at
// once, and Next's insertion sort is linear on a sorted run.
func (r *Ring) Rebuild(slots []int64) {
	for i := range r.head {
		r.head[i] = -1
	}
	clear(r.occ)
	r.cur = 0
	for i := len(slots) - 1; i >= 0; i-- {
		r.File(slots[i], int32(i))
	}
}

// File prepends node i to the bucket for slot, which must not lie
// before the scan position.
func (r *Ring) File(slot int64, i int32) {
	b := slot & r.mask
	r.next[i] = r.head[b]
	r.head[b] = i
	r.occ[b>>6] |= 1 << uint(b&63)
}

// Next advances the clock to the first slot before limit at which at
// least one node's slots[i] expires, appends those nodes to out in
// ascending node order, and returns the slot and the extended slice.
// The nodes returned are no longer filed; the caller re-files them.
// Entries visited early — filed wraps ahead or shifted since — are
// re-filed at their true slot. When no event lies before limit, Next
// returns (limit, out) and every entry stays filed.
//
// One call walks at most one wrap of the ring: once the clock has
// scanned every bucket without an expiry, it jumps straight to the
// earliest filed slot, which is the next event. An idle gap of any
// length therefore costs at most two passes over the bitmap and the
// filed entries.
func (r *Ring) Next(slots []int64, limit int64, out []int) (int64, []int) {
	head, next, occ, mask := r.head, r.next, r.occ, r.mask
	t := r.cur
	start := t // the clock has scanned [start, t) without an expiry
	for t < limit {
		// Jump to the first occupied bucket at or after t: in t's own
		// bitmap word when it has one, else in the words after it.
		b := t & mask
		if word := occ[b>>6] >> uint(b&63); word != 0 {
			t += int64(bits.TrailingZeros64(word))
		} else {
			t = r.skip(t)
		}
		if t >= limit {
			t = limit
			break
		}
		b = t & mask
		j := head[b]
		head[b] = -1
		occ[b>>6] &^= 1 << uint(b&63)
		n0 := len(out)
		for j >= 0 {
			nj := next[j]
			if slots[j] == t {
				out = append(out, int(j))
			} else {
				fb := slots[j] & mask
				next[j] = head[fb]
				head[fb] = j
				occ[fb>>6] |= 1 << uint(fb&63)
			}
			j = nj
		}
		if len(out) > n0 {
			if len(out) > n0+1 {
				sortAscending(out[n0:])
			}
			r.cur = t + 1
			return t, out
		}
		if t-start >= mask { // a whole wrap scanned: jump to the next event
			t = min(r.earliest(slots), limit)
			start = t
			continue
		}
		t++
	}
	r.cur = t
	return t, out
}

// earliest returns the smallest slot of any filed entry, walking only
// the occupied buckets.
func (r *Ring) earliest(slots []int64) int64 {
	lo := int64(math.MaxInt64)
	for w, word := range r.occ {
		for ; word != 0; word &= word - 1 {
			for j := r.head[w<<6+bits.TrailingZeros64(word)]; j >= 0; j = r.next[j] {
				lo = min(lo, slots[j])
			}
		}
	}
	return lo
}

// skip returns the first slot whose bucket is occupied, scanning the
// bitmap words after t's word and wrapping once around the ring to t's
// own; it returns math.MaxInt64 when the ring is empty.
func (r *Ring) skip(t int64) int64 {
	w := int((t & r.mask) >> 6)
	t += 64 - t&63 // first slot of the next word
	for range r.occ {
		if w++; w == len(r.occ) {
			w = 0
		}
		if word := r.occ[w]; word != 0 {
			return t + int64(bits.TrailingZeros64(word))
		}
		t += 64
	}
	return math.MaxInt64
}

// sortAscending insertion-sorts a freshly collected expired run: a
// handful of nodes, or a fresh run's large first runs, which Rebuild
// files already ascending.
func sortAscending(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
