package topology

import (
	"slices"
	"sort"
)

// grid.go implements the cell-indexed spatial structure behind the
// O(n·deg) adjacency builds. The deployment area is covered by
// Range-sized cells (cell extents are >= Range by construction), every
// node is bucketed by the cell containing its position, and a build
// scans only the 3x3 cell block around each node — any node within
// Range is guaranteed to lie in one of those cells.
//
// Determinism contract: buckets store node indices in ascending order;
// the builds (emptyRows, and appendLinks for AdjacencyInto and the
// view's refill and patch) filter the candidate buckets and sort the surviving
// neighbors, so rows come back in exactly the ascending-index order the
// original O(n²) linear scan produced, and link membership itself is
// decided by the very same isLink predicate. The multihop differential
// matrix (event-skipping engine vs reference loop, bit-identical) relies
// on this; BruteForceAdjacencyLists keeps the linear scan available as
// the pinned reference.
//
// Mobility updates are incremental: Step re-buckets a node only when it
// crosses a cell boundary, so a mobility re-snapshot costs O(moved)
// bucket edits plus an O(n·deg) refill instead of an O(n²) rebuild.
// Builds only read the grid, so concurrent refills into separate buffers
// remain safe; mutators (Step, SetPositions) require exclusive access.
type cellGrid struct {
	cols, rows   int
	cellW, cellH float64
	cells        [][]int // per-cell node buckets, each sorted ascending
	cellOf       []int   // node index -> cell index
}

// gridAxisCells returns the cell count along one axis: the largest count
// whose cell extent still covers rng, so the 3x3 block around any cell
// contains every point within rng of it.
func gridAxisCells(extent, rng float64) int {
	n := int(extent / rng)
	if n < 1 {
		return 1
	}
	// Guard the floating-point edge where extent/rng rounds up across an
	// integer: the cell extent must never drop below the range.
	for n > 1 && extent/float64(n) < rng {
		n--
	}
	return n
}

// init sizes the grid for the configuration and allocates empty buckets.
func (g *cellGrid) init(cfg Config) {
	g.cols = gridAxisCells(cfg.Width, cfg.Range)
	g.rows = gridAxisCells(cfg.Height, cfg.Range)
	g.cellW = cfg.Width / float64(g.cols)
	g.cellH = cfg.Height / float64(g.rows)
	g.cells = make([][]int, g.cols*g.rows)
	g.cellOf = make([]int, cfg.N)
}

// cellIndex maps a position to its cell, clamping boundary coordinates
// (X == Width lands in the last column, not one past it).
func (g *cellGrid) cellIndex(p Point) int {
	cx := int(p.X / g.cellW)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	cy := int(p.Y / g.cellH)
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// rebuild re-buckets every node from scratch. Iterating nodes in
// ascending index order keeps each bucket sorted without a sort pass.
func (g *cellGrid) rebuild(pos []Point) {
	for c := range g.cells {
		g.cells[c] = g.cells[c][:0]
	}
	for i, p := range pos {
		c := g.cellIndex(p)
		g.cellOf[i] = c
		g.cells[c] = append(g.cells[c], i)
	}
}

// update moves node i to the bucket containing p, preserving the sorted
// bucket invariant. It is a no-op while the node stays inside its cell —
// the common case under the paper's slow mobility.
func (g *cellGrid) update(i int, p Point) {
	c := g.cellIndex(p)
	old := g.cellOf[i]
	if c == old {
		return
	}
	g.cellOf[i] = c
	g.cells[old] = deleteSorted(g.cells[old], i)
	g.cells[c] = insertSorted(g.cells[c], i)
}

// neighborhood copies the bucket headers of the 3x3 cell block around p
// into heads and returns how many non-empty buckets it wrote. Callers may
// advance the copied headers without disturbing the grid.
func (g *cellGrid) neighborhood(p Point, heads *[9][]int) int {
	c := g.cellIndex(p)
	cx, cy := c%g.cols, c/g.cols
	x0, x1 := cx-1, cx+1
	if x0 < 0 {
		x0 = 0
	}
	if x1 >= g.cols {
		x1 = g.cols - 1
	}
	y0, y1 := cy-1, cy+1
	if y0 < 0 {
		y0 = 0
	}
	if y1 >= g.rows {
		y1 = g.rows - 1
	}
	m := 0
	for y := y0; y <= y1; y++ {
		row := y * g.cols
		for x := x0; x <= x1; x++ {
			if b := g.cells[row+x]; len(b) > 0 {
				heads[m] = b
				m++
			}
		}
	}
	return m
}

// sortNeighbors sorts a freshly gathered neighbor run ascending in
// place. Runs are a handful of already-sorted per-bucket stretches and
// rarely exceed the mean degree, where insertion sort beats both an
// element-wise bucket merge and slices.Sort; unusually dense runs fall
// back to slices.Sort to dodge the quadratic tail.
func sortNeighbors[T int | int32](b []T) {
	if len(b) > 64 {
		slices.Sort(b)
		return
	}
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

func insertSorted(b []int, i int) []int {
	k := sort.SearchInts(b, i)
	b = append(b, 0)
	copy(b[k+1:], b[k:])
	b[k] = i
	return b
}

func deleteSorted(b []int, i int) []int {
	k := sort.SearchInts(b, i)
	copy(b[k:], b[k+1:])
	return b[:len(b)-1]
}
