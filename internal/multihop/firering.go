package multihop

import "math/bits"

// firering.go is the fire-slot calendar of the event-skipping engine: a
// bucket ring.
//
// The engine's fire slots live inside a bounded horizon: a node's next
// fire slot never lies more than maxDur + maxCW - 1 slots past the
// current event slot, where maxDur = max(Ts, Tc) in slots and maxCW is
// the largest post-doubling window any node can draw (cw << MaxStage).
// That bound makes a calendar-queue ring exact: a ring of W >= maxDur +
// maxCW power-of-two buckets, bucket b holding the nodes filed for slots
// ≡ b (mod W) as an intrusive singly-linked list (head per bucket, one
// next pointer per node — every node has exactly one live entry, so no
// allocation ever). Filing is O(1); advancing the clock scans buckets
// forward from the current slot, and because every filed slot is less
// than W ahead, the first visit to a bucket happens exactly at the
// entry's filed slot — never early.
//
// Freeze shifts are lazy: carrier holds move fire[] forward without
// touching the calendar, and a visited entry whose filed slot no longer
// equals fire[node] is re-filed at the node's true slot — an O(1) list
// prepend. This is exact because shifts only ever move fire slots
// forward, so a stale entry surfaces no later than its node's true slot.
// Stale repairs dominate calendar traffic at large n (every
// transmission shifts every neighbor), and each costs one pointer hop.
//
// Configurations whose horizon exceeds maxRingSpan do not use the ring
// at all: the engine routes them to the reference loop (see
// simState.run).
//
// Determinism: a bucket's list order is filing order, not node order, so
// the collected expired set is insertion-sorted ascending before it is
// returned — the (slot, node) lexicographic order the reference loop's
// ascending node scan requires.
type fireRing struct {
	head []int32 // bucket -> first node filed there, -1 when empty
	next []int32 // node -> next node in its bucket, -1 at list end
	mask int64
	cur  int64 // next slot to scan; all live entries are at slots >= cur
}

// maxRingSpan caps the ring's bucket count (1<<17 buckets = 512 KiB of
// heads). Configurations whose fire-slot horizon exceeds it — extreme
// CW << MaxStage products — run the reference loop instead.
const maxRingSpan = 1 << 17

func nextPow2(v int64) int64 {
	if v < 1 {
		v = 1
	}
	return int64(1) << bits.Len64(uint64(v-1))
}

// init sizes the ring for n nodes and a fire-slot horizon of span slots,
// reusing the backing arrays when they are already large enough.
func (r *fireRing) init(n int, span int64) {
	w := nextPow2(span)
	if int64(cap(r.head)) >= w {
		r.head = r.head[:w]
	} else {
		r.head = make([]int32, w)
	}
	if cap(r.next) >= n {
		r.next = r.next[:n]
	} else {
		r.next = make([]int32, n)
	}
	r.mask = w - 1
}

// rebuild resets the clock to slot 0 and files one entry per node at
// fire[i], dropping any previous contents. It allocates nothing.
func (r *fireRing) rebuild(fire []int64) {
	for i := range r.head {
		r.head[i] = -1
	}
	r.cur = 0
	for i, f := range fire {
		r.file(f, int32(i))
	}
}

// file prepends node i to the bucket for slot. The slot must be less
// than one full ring ahead of the current scan position — the engine's
// horizon bound guarantees it.
func (r *fireRing) file(slot int64, i int32) {
	b := slot & r.mask
	r.next[i] = r.head[b]
	r.head[b] = i
}

// nextEvent advances the clock to the next slot (before limit) at which
// at least one node's true fire slot expires, appends those nodes to
// expired in ascending node order, and returns the slot and the extended
// slice. Entries visited with a stale filed slot are re-filed at their
// true fire slot. When no event lies before limit it returns (limit,
// expired) unchanged; entries at or past limit stay filed.
func (r *fireRing) nextEvent(fire []int64, limit int64, expired []int) (int64, []int) {
	head, next, mask := r.head, r.next, r.mask
	t := r.cur
	for t < limit {
		b := t & mask
		if j := head[b]; j >= 0 {
			head[b] = -1
			n0 := len(expired)
			for j >= 0 {
				nj := next[j]
				if fire[j] == t {
					expired = append(expired, int(j))
				} else {
					// Stale: the node was freeze-shifted after filing.
					// Shifts only move fire slots forward, so the true
					// slot is still ahead; re-file there.
					fb := fire[j] & mask
					next[j] = head[fb]
					head[fb] = j
				}
				j = nj
			}
			if len(expired) > n0 {
				sortExpired(expired[n0:])
				r.cur = t
				return t, expired
			}
		}
		t++
	}
	r.cur = t
	return t, expired
}

// sortExpired insertion-sorts a freshly collected expired run ascending.
// Expired sets are a handful of nodes; filing order is close to reversed
// arrival, so the runs are tiny and nearly sorted.
func sortExpired(b []int) {
	for i := 1; i < len(b); i++ {
		v := b[i]
		j := i - 1
		for j >= 0 && b[j] > v {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = v
	}
}
