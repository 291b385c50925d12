package topology

import (
	"cmp"
	"errors"
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
// query (appendLinks) — and the bulk refill is AdjacencyInto's scan and
// scatter.
//
// A step has two halves. PrepareStep moves the nodes, runs every
// neighbor query the refresh needs into view-owned scratch and diffs it
// against the rows into the delta; it writes the network's mobility
// state, its grid, the scratch and the delta, and only reads the rows.
// ApplyStep writes the rows from the scratch. So a reader may keep
// reading the rows while another goroutine prepares the next step, as
// the multihop engine does, and only ApplyStep needs the readers to have
// stopped. StepDelta is the two halves back to back. The scratch is one
// int32 run per node (bulk) or per moved node (patch), about a quarter
// of the rows' size, reused step after step; there is no second row
// set.
//
// Staleness is tracked through the network's position generation
// (posGen, bumped by every mutation that moves a node, and by ApplyStep):
// if the network moved outside the view's control (a plain Step or
// SetPositions), the next Rows or PrepareStep call rebuilds the rows in
// place and resynchronises. On a static network the version never
// changes, so every consult after the first is free — the "adjacency
// amortised to stage 0" fast path.
type Adjacency struct {
	nw    *Network
	built bool
	gen   uint64

	rows  [][]int
	delta Delta
	moved []bool // scratch bitmask over nodes, cleared after each step

	// The prepared step, from PrepareStep to ApplyStep: whether one is
	// pending, which refresh it takes, and its neighbor queries — the
	// refill's j > i links of every node, or the patch's fresh row of
	// every moved node — as runs of links, the k-th ending at ends[k].
	pending bool
	bulk    bool
	links   []int32
	ends    []int32
}

// Pair is an undirected node pair with A < B.
type Pair struct {
	A, B int
}

// Delta reports what one mobility step changed. The slices are owned by
// the view and reused: they are valid until the next step.
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
// view's creation and its resync run under the network's mutex. A step
// (StepDelta, or PrepareStep then ApplyStep) mutates the network and
// needs the same exclusive access Network.Step does, except that the
// rows may still be read while PrepareStep runs.
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
// caller: ApplyStep refreshes it in place, and the first Rows after any
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

// bulkMovedPercent is the crossover between a step's two refresh
// strategies, as a percentage of nodes moved in the step. Below it,
// patching the rows incident to moved nodes wins: its cost tracks the
// change. At or above it, one symmetric bulk refill (AdjacencyInto's
// scan and scatter) wins: it tests each candidate pair once, while the
// patch re-queries every moved node in full. The cmd/bench rows bracket
// it: topology/delta-vs-rebuild-n1000-paused moves ~20% of nodes per
// step (patch wins), topology/delta-vs-rebuild-n1000 moves all of them
// (refill wins). A pause-length sweep on the same n=1000 network puts
// the break-even near 70%.
const bulkMovedPercent = 70

// StepDelta advances the network's random-waypoint mobility by dt
// seconds — consuming the mobility PRNG exactly like Network.Step — and
// refreshes the view in place: PrepareStep then ApplyStep. It returns
// the delta (view-owned, valid until the next step). When no node moves
// (a static network, or every node pausing), the network's position
// version is unchanged and the refresh is skipped entirely.
//
// The refresh picks per step between patching the rows incident to
// moved nodes and a bulk refill of every row, by the share of nodes that
// moved (bulkMovedPercent). Either way the rows and the delta are
// identical. A link can only change if at least one endpoint moved, and
// the delta lists the changes in one order: by the moved endpoint that
// records them, ascending, then by the other endpoint, ascending; a pair
// whose endpoints both moved is recorded by the lower one.
func (v *Adjacency) StepDelta(dt float64) (*Delta, error) {
	if err := v.PrepareStep(dt); err != nil {
		return nil, err
	}
	return v.ApplyStep()
}

// PrepareStep is the first half of StepDelta: it advances the mobility
// by dt seconds, runs the neighbor queries the refresh needs into the
// view's scratch — every node's j > i links for a refill, every moved
// node's row for a patch — and diffs them against the rows into the
// delta. It reads the rows and never writes them, so another goroutine
// may read the rows while it runs; the network itself (its positions,
// mobility PRNG and grid) is written, and nothing else may use it until
// ApplyStep. If the network moved outside the view since the last Rows,
// PrepareStep first rebuilds the rows, a write: a caller that shares the
// rows with a concurrent reader calls Rows first. A second PrepareStep
// before ApplyStep is an error.
func (v *Adjacency) PrepareStep(dt float64) error {
	if dt < 0 {
		return fmt.Errorf("topology: negative time step %g", dt)
	}
	if v.pending {
		return errors.New("topology: a prepared step is pending")
	}
	v.sync()
	nw := v.nw
	n := nw.cfg.N
	if len(v.moved) != n {
		v.moved = make([]bool, n)
		v.ends = make([]int32, n)
	}
	d := &v.delta
	d.Moved = d.Moved[:0]
	d.Gained = d.Gained[:0]
	d.Lost = d.Lost[:0]
	v.pending = true

	for i := range nw.pos {
		p := nw.pos[i]
		nw.stepNode(i, dt)
		if nw.pos[i] != p {
			v.moved[i] = true
			d.Moved = append(d.Moved, i)
		}
		nw.g.update(i, nw.pos[i])
	}
	if len(d.Moved) == 0 {
		return nil
	}
	v.bulk = 100*len(d.Moved) >= bulkMovedPercent*n
	v.links = v.links[:0]
	if !v.bulk {
		for k, i := range d.Moved {
			start := len(v.links)
			v.links = appendLinks(nw, i, -1, v.links)
			v.ends[k] = int32(len(v.links))
			v.diff(i, v.rows[i], v.links[start:])
		}
		return nil
	}
	// The refill diffs each node's j > i links, so a pair is found from
	// its lower endpoint even when only the upper one moved; sorting
	// restores the recording order.
	for i := 0; i < n; i++ {
		start := len(v.links)
		v.links = appendLinks(nw, i, i, v.links)
		v.ends[i] = int32(len(v.links))
		old := v.rows[i]
		k := 0
		for k < len(old) && old[k] < i {
			k++
		}
		v.diff(i, old[k:], v.links[start:])
	}
	slices.SortFunc(d.Gained, v.byRecorder)
	slices.SortFunc(d.Lost, v.byRecorder)
	return nil
}

// ApplyStep is the second half of StepDelta: it writes the step that
// PrepareStep prepared into the rows — the refill's scatter, or the
// patch's edits to the rows of the moved nodes' neighbors and
// replacement of the moved nodes' own — and returns the delta
// (view-owned, valid until the next step). No reader may hold the rows
// across it: they change in place. It is an error without a prepared
// step.
func (v *Adjacency) ApplyStep() (*Delta, error) {
	if !v.pending {
		return nil, errors.New("topology: no prepared step to apply")
	}
	v.pending = false
	d := &v.delta
	if len(d.Moved) == 0 {
		return d, nil
	}
	v.nw.posGen++
	if v.bulk {
		for i := range v.rows {
			v.rows[i] = v.rows[i][:0]
		}
		for i := range v.rows {
			up := v.run(i)
			v.rows[i] = appendRun(v.rows[i], up)
			mirror(v.rows, i, up)
		}
	} else {
		for _, p := range d.Lost {
			v.edit(p, deleteSorted)
		}
		for _, p := range d.Gained {
			v.edit(p, insertSorted)
		}
		for k, i := range d.Moved {
			v.rows[i] = appendRun(v.rows[i][:0], v.run(k))
		}
	}
	for _, i := range d.Moved {
		v.moved[i] = false
	}
	v.gen = v.nw.posGen
	return d, nil
}

// run returns the k-th prepared run of links.
func (v *Adjacency) run(k int) []int32 {
	start := int32(0)
	if k > 0 {
		start = v.ends[k-1]
	}
	return v.links[start:v.ends[k]]
}

// appendRun appends a prepared run of links to a row.
func appendRun(row []int, run []int32) []int {
	for _, j := range run {
		row = append(row, int(j))
	}
	return row
}

// diff records the links of node i that differ between old and fresh,
// two ascending runs of its neighbors before and after the step, as lost
// and gained pairs — those whose recording pass is i's (records).
func (v *Adjacency) diff(i int, old []int, fresh []int32) {
	d := &v.delta
	a, b := 0, 0
	for a < len(old) || b < len(fresh) {
		switch {
		case b == len(fresh) || (a < len(old) && old[a] < int(fresh[b])):
			if v.records(i, old[a]) {
				d.Lost = append(d.Lost, orderedPair(i, old[a]))
			}
			a++
		case a == len(old) || int(fresh[b]) < old[a]:
			if j := int(fresh[b]); v.records(i, j) {
				d.Gained = append(d.Gained, orderedPair(i, j))
			}
			b++
		default:
			a++
			b++
		}
	}
}

// edit applies one changed link to the row of each endpoint that did
// not move; a moved endpoint's row is replaced wholesale instead.
func (v *Adjacency) edit(p Pair, op func([]int, int) []int) {
	if !v.moved[p.A] {
		v.rows[p.A] = op(v.rows[p.A], p.B)
	}
	if !v.moved[p.B] {
		v.rows[p.B] = op(v.rows[p.B], p.A)
	}
}

// records reports whether moved node i's pass records a change to the
// link i–j: every link except one to a moved node below i, whose own
// pass has already recorded it. An unmoved i records nothing but links
// to a moved j above it, which the refill finds from i's side; their
// recorder is j (byRecorder).
func (v *Adjacency) records(i, j int) bool {
	return j > i || !v.moved[j]
}

// byRecorder orders changed links by the node whose pass records them —
// the lower endpoint if it moved, else the upper — then by the other
// endpoint.
func (v *Adjacency) byRecorder(p, q Pair) int {
	pr, po := p.A, p.B
	if !v.moved[pr] {
		pr, po = po, pr
	}
	qr, qo := q.A, q.B
	if !v.moved[qr] {
		qr, qo = qo, qr
	}
	return cmp.Or(cmp.Compare(pr, qr), cmp.Compare(po, qo))
}

func orderedPair(i, j int) Pair {
	if i < j {
		return Pair{A: i, B: j}
	}
	return Pair{A: j, B: i}
}
