package topology

import (
	"fmt"
	"slices"
)

// adjacency.go is the incremental adjacency view: a reusable snapshot of
// the network's neighbor lists that mobility steps refresh in place,
// either by *patching* the rows incident to nodes that moved (sparse
// change) or by one bulk refill (dense change), whichever is cheaper for
// the step (see bulkMovedPercent). It is the network's one link source:
// Connected, MeanDegree and every caller outside this package read its
// rows (Network.Rows), so the degrees of the local games, the TFT graph
// and the simulators' receiver picks all come from one structure.
//
// The view's contract mirrors the grid's determinism contract: every row
// is in exactly the ascending-index order BruteForceAdjacencyLists
// produces, at all times. The patch algorithm preserves it by
// construction — unmoved neighbors' rows are edited with the same
// sorted-insert/sorted-delete primitives the cell buckets use, and a
// moved node's own row is wholesale-replaced with a fresh sorted grid
// query (appendNeighbors) — and the bulk refill is AdjacencyInto itself.
//
// Staleness is tracked through the network's position generation
// (posGen, bumped by every mutation that moves a node): if the network
// moved outside the view's control (a plain Step or SetPositions), the
// next Rows or StepDelta call rebuilds the rows in place and
// resynchronises. On a static network the version never changes, so
// every consult after the first is free — the "adjacency amortised to
// stage 0" fast path.
type Adjacency struct {
	nw    *Network
	built bool
	gen   uint64

	rows    [][]int
	delta   Delta
	moved   []bool  // scratch bitmask over nodes, cleared after each Step
	oldPos  []Point // positions before the step, for the refill's delta
	kept    []int   // refill: each moved node's old links still in range
	scratch []int   // fresh-neighbor query buffer
}

// Pair is an undirected node pair with A < B.
type Pair struct {
	A, B int
}

// Delta reports what one mobility step changed. The slices are owned by
// the view and reused: they are valid until the next StepDelta call.
type Delta struct {
	// Moved lists the nodes whose position changed, ascending.
	Moved []int
	// Gained and Lost list the links that appeared/disappeared, each pair
	// exactly once.
	Gained []Pair
	Lost   []Pair
}

// AdjacencyView returns the network's incremental view of its neighbor
// lists. There is one view per network, created on first use, and every
// caller shares its rows: a static network is snapshotted once however
// many simulations read it. Rows may be called from several goroutines
// at once — a parallel sweep over one static network does — because the
// view's creation and its resync run under the network's mutex. StepDelta
// mutates the network and needs the same exclusive access Network.Step
// does.
func (nw *Network) AdjacencyView() *Adjacency {
	nw.adjMu.Lock()
	defer nw.adjMu.Unlock()
	if nw.adj == nil {
		nw.adj = &Adjacency{nw: nw}
	}
	return nw.adj
}

// Rows returns the network's shared neighbor rows: its adjacency view's
// Rows. They are ascending, owned by the view, and valid until the
// network next moves.
func (nw *Network) Rows() [][]int { return nw.AdjacencyView().Rows() }

// sync rebuilds the rows if the view has never been built or the network
// has moved since the view last saw it.
func (v *Adjacency) sync() {
	if v.built && v.gen == v.nw.posGen {
		return
	}
	v.rows = v.nw.AdjacencyInto(v.rows)
	v.gen = v.nw.posGen
	v.built = true
}

// Rows returns the current neighbor lists, synchronising first if the
// network moved. The structure is owned by the view and shared by every
// caller: StepDelta patches it in place, and the first Rows after any
// other network mutation refills it in place. Per-row contents and
// ordering are identical to BruteForceAdjacencyLists; the one
// representational difference is that a row emptied by patching is
// empty-but-non-nil rather than nil (callers test len, as the engines
// do).
func (v *Adjacency) Rows() [][]int {
	v.nw.adjMu.Lock()
	defer v.nw.adjMu.Unlock()
	v.sync()
	return v.rows
}

// bulkMovedPercent is StepDelta's crossover between its two refresh
// strategies, as a percentage of nodes moved in the step. Below it,
// patching the rows incident to moved nodes wins: its cost tracks the
// change. At or above it, one symmetric bulk refill (AdjacencyInto)
// wins: it tests each candidate pair once, while the patch re-queries
// every moved node in full. The cmd/bench rows bracket it:
// topology/delta-vs-rebuild-n1000-paused moves ~20% of nodes per step
// (patch wins), topology/delta-vs-rebuild-n1000 moves all of them
// (refill wins). A pause-length sweep on the same n=1000 network puts
// the break-even near 70%.
const bulkMovedPercent = 70

// StepDelta advances the network's random-waypoint mobility by dt
// seconds — consuming the mobility PRNG exactly like Network.Step — and
// refreshes the view in place. It returns the delta (view-owned, valid
// until the next StepDelta). When no node moves (a static network, or
// every node pausing), the network's position version is unchanged and
// the refresh is skipped entirely.
//
// The refresh picks per step between patching the rows incident to
// moved nodes and a bulk refill of every row, by the share of nodes that
// moved (bulkMovedPercent). Either way the rows and the delta are
// identical. A link can only change if at least one endpoint moved, so
// both walk the moved nodes in ascending order, each over its neighbors
// in ascending order; a pair whose endpoints both moved is recorded by
// the earlier one only.
func (v *Adjacency) StepDelta(dt float64) (*Delta, error) {
	if dt < 0 {
		return nil, fmt.Errorf("topology: negative time step %g", dt)
	}
	v.sync()
	nw := v.nw
	n := nw.cfg.N
	if len(v.moved) != n {
		v.moved = make([]bool, n)
		v.oldPos = make([]Point, n)
	}
	d := &v.delta
	d.Moved = d.Moved[:0]
	d.Gained = d.Gained[:0]
	d.Lost = d.Lost[:0]

	copy(v.oldPos, nw.pos)
	for i := range nw.pos {
		nw.stepNode(i, dt)
		if nw.pos[i] != v.oldPos[i] {
			v.moved[i] = true
			d.Moved = append(d.Moved, i)
		}
		nw.g.update(i, nw.pos[i])
	}
	if len(d.Moved) == 0 {
		return d, nil
	}
	nw.posGen++

	if 100*len(d.Moved) >= bulkMovedPercent*n {
		v.refill()
	} else {
		v.patch()
	}
	for _, i := range d.Moved {
		v.moved[i] = false
	}
	v.gen = nw.posGen
	return d, nil
}

// patch diffs each moved node's old row against a fresh grid query,
// edits the unmoved neighbors' rows to match, and replaces the moved
// node's row.
func (v *Adjacency) patch() {
	for _, i := range v.delta.Moved {
		fresh := v.nw.appendNeighbors(i, v.scratch[:0])
		v.scratch = fresh
		old := v.rows[i]
		if slices.Equal(old, fresh) {
			continue // most moved nodes keep their links over one step
		}
		a, b := 0, 0
		for a < len(old) || b < len(fresh) {
			switch {
			case b == len(fresh) || (a < len(old) && old[a] < fresh[b]):
				v.linkChanged(i, old[a], false)
				a++
			case a == len(old) || fresh[b] < old[a]:
				v.linkChanged(i, fresh[b], true)
				b++
			default:
				a++
				b++
			}
		}
		v.rows[i] = append(v.rows[i][:0], fresh...)
	}
}

// linkChanged records, for patch, that the link i–j appeared (gained)
// or disappeared, and edits j's row to match. A moved j's row is
// replaced by its own pass instead.
func (v *Adjacency) linkChanged(i, j int, gained bool) {
	if !v.records(i, j) {
		return
	}
	if gained {
		if !v.moved[j] {
			v.rows[j] = insertSorted(v.rows[j], i)
		}
		v.delta.Gained = append(v.delta.Gained, orderedPair(i, j))
	} else {
		if !v.moved[j] {
			v.rows[j] = deleteSorted(v.rows[j], i)
		}
		v.delta.Lost = append(v.delta.Lost, orderedPair(i, j))
	}
}

// refill rebuilds every row with AdjacencyInto. The delta needs no copy
// of the old rows: a link is lost when an old row's neighbor is out of
// range at the new positions, checked before the refill, and gained
// when a new row's neighbor was out of range at the old positions,
// checked after it — the same range predicate the rows were built with,
// so the result is exactly the rows' difference. A moved node whose new
// row is no longer than the old links it kept gained none, which lets
// the second check skip nearly every row.
func (v *Adjacency) refill() {
	nw, d := v.nw, &v.delta
	v.kept = v.kept[:0]
	for _, i := range d.Moved {
		p, kept := nw.pos[i], 0
		for _, j := range v.rows[i] {
			if nw.inRange(p, nw.pos[j]) {
				kept++
			} else if v.records(i, j) {
				d.Lost = append(d.Lost, orderedPair(i, j))
			}
		}
		v.kept = append(v.kept, kept)
	}
	v.rows = nw.AdjacencyInto(v.rows)
	for k, i := range d.Moved {
		if len(v.rows[i]) == v.kept[k] {
			continue
		}
		p := v.oldPos[i]
		for _, j := range v.rows[i] {
			if v.records(i, j) && !nw.inRange(p, v.oldPos[j]) {
				d.Gained = append(d.Gained, orderedPair(i, j))
			}
		}
	}
}

// records reports whether moved node i's pass records a change to the
// link i–j: every link except one to a moved node below i, whose own
// pass has already recorded it.
func (v *Adjacency) records(i, j int) bool {
	return j > i || !v.moved[j]
}

func orderedPair(i, j int) Pair {
	if i < j {
		return Pair{A: i, B: j}
	}
	return Pair{A: j, B: i}
}
