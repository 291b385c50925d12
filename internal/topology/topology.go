// Package topology models the spatial substrate of the multi-hop
// experiments (paper Section VII.B): node placement in a rectangular
// area, unit-disk connectivity with a fixed transmission range, and the
// random-waypoint mobility model.
//
// Units: positions and ranges in meters, speeds in meters/second, times
// in seconds. The paper's scenario is 100 nodes, 1000 m × 1000 m, 250 m
// range, speeds uniform in [0, 5] m/s.
package topology

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"selfishmac/internal/rng"
)

// Point is a position in the plane (meters).
type Point struct {
	X, Y float64
}

// DistTo returns the Euclidean distance to q.
func (p Point) DistTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Config parameterises a network.
type Config struct {
	// N is the node count.
	N int
	// Width and Height are the deployment area in meters.
	Width, Height float64
	// Range is the transmission (and carrier-sense) radius in meters.
	Range float64
	// MinSpeed and MaxSpeed bound the random-waypoint speed in m/s.
	// MaxSpeed = 0 yields a static network.
	MinSpeed, MaxSpeed float64
	// Pause is the dwell time at each waypoint in seconds.
	Pause float64
	// Seed drives placement and mobility.
	Seed uint64
}

// PaperConfig returns the paper's Section VII.B scenario.
func PaperConfig(seed uint64) Config {
	return Config{
		N:        100,
		Width:    1000,
		Height:   1000,
		Range:    250,
		MinSpeed: 0,
		MaxSpeed: 5,
		Pause:    0,
		Seed:     seed,
	}
}

// ErrInvalidTopology is wrapped by every error a Config fails validation
// with, so callers can tell a rejected configuration from other failures
// with errors.Is.
var ErrInvalidTopology = errors.New("topology: invalid config")

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Validate checks the configuration. Every float field must be finite:
// NaN slips through ordered comparisons, and an infinite area, range or
// speed has no meaningful placement or mobility.
func (c Config) Validate() error {
	var errs []error
	if c.N < 1 {
		errs = append(errs, fmt.Errorf("N = %d must be >= 1", c.N))
	}
	if !(c.Width > 0) || !(c.Height > 0) || !finite(c.Width) || !finite(c.Height) {
		errs = append(errs, fmt.Errorf("area %g x %g must be positive and finite", c.Width, c.Height))
	}
	if !(c.Range > 0) || !finite(c.Range) {
		errs = append(errs, fmt.Errorf("range %g must be positive and finite", c.Range))
	}
	if !(c.MinSpeed >= 0) || !(c.MaxSpeed >= c.MinSpeed) || !finite(c.MaxSpeed) {
		errs = append(errs, fmt.Errorf("speed bounds [%g, %g] invalid", c.MinSpeed, c.MaxSpeed))
	}
	if !(c.Pause >= 0) || !finite(c.Pause) {
		errs = append(errs, fmt.Errorf("pause %g must be non-negative and finite", c.Pause))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrInvalidTopology, errors.Join(errs...))
}

// Network is a set of (possibly mobile) nodes with unit-disk links.
// Its links are read through one adjacency view (Rows), built over a
// cell grid (grid.go): O(deg) per node instead of the O(n) pairwise
// scan, with rows in the same ascending index order the linear scan
// produced.
type Network struct {
	cfg       Config
	pos       []Point
	waypoint  []Point
	speed     []float64
	pauseLeft []float64
	src       *rng.Source
	g         cellGrid
	rangeSq   float64
	// posGen counts position mutations: any Step that moved at least one
	// node, and every SetPositions, bumps it. Adjacency views compare it
	// to detect staleness, which is what lets static networks (and static
	// phases of mobile runs) skip adjacency work entirely.
	posGen uint64
	// adj is the network's one adjacency view, created on first use.
	// adjMu guards its creation and its Rows resync, so concurrent
	// readers of a static network may share it.
	adjMu sync.Mutex
	adj   *Adjacency
}

// New places cfg.N nodes uniformly at random and initialises their
// random-waypoint state.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nw := &Network{
		cfg:       cfg,
		pos:       make([]Point, cfg.N),
		waypoint:  make([]Point, cfg.N),
		speed:     make([]float64, cfg.N),
		pauseLeft: make([]float64, cfg.N),
		src:       rng.New(cfg.Seed),
		rangeSq:   cfg.Range * cfg.Range,
	}
	for i := range nw.pos {
		nw.pos[i] = nw.randomPoint()
		nw.newLeg(i)
	}
	nw.g.init(cfg)
	nw.g.rebuild(nw.pos)
	return nw, nil
}

func (nw *Network) randomPoint() Point {
	return Point{
		X: nw.src.UniformRange(0, nw.cfg.Width),
		Y: nw.src.UniformRange(0, nw.cfg.Height),
	}
}

// newLeg assigns node i a fresh waypoint and speed.
func (nw *Network) newLeg(i int) {
	nw.waypoint[i] = nw.randomPoint()
	nw.speed[i] = nw.legSpeed()
	nw.pauseLeft[i] = 0
}

// legSpeed draws a random-waypoint leg speed. A draw of exactly zero —
// reachable with the paper's MinSpeed = 0 — is redrawn: a zero-speed leg
// never reaches its waypoint, so the node would never start a new leg and
// would stay frozen for the rest of the simulation. Static networks
// (MaxSpeed = 0) keep speed 0 and never move by design.
func (nw *Network) legSpeed() float64 {
	sp := nw.src.UniformRange(nw.cfg.MinSpeed, nw.cfg.MaxSpeed)
	for sp <= 0 && nw.cfg.MaxSpeed > 0 {
		sp = nw.src.UniformRange(nw.cfg.MinSpeed, nw.cfg.MaxSpeed)
	}
	return sp
}

// N returns the node count.
func (nw *Network) N() int { return nw.cfg.N }

// Config returns the network's configuration.
func (nw *Network) Config() Config { return nw.cfg }

// Position returns node i's current position.
func (nw *Network) Position(i int) Point { return nw.pos[i] }

// Positions returns a copy of all node positions.
func (nw *Network) Positions() []Point {
	return append([]Point(nil), nw.pos...)
}

// stepNode advances one node's random-waypoint state by dt seconds. It
// is the shared inner loop of Step and Adjacency.Step: both must consume
// the mobility PRNG identically, or the delta-patched and rebuilt paths
// would diverge. The caller maintains the spatial index.
func (nw *Network) stepNode(i int, dt float64) {
	remaining := dt
	for remaining > 0 {
		if nw.pauseLeft[i] > 0 {
			if nw.pauseLeft[i] >= remaining {
				nw.pauseLeft[i] -= remaining
				return
			}
			remaining -= nw.pauseLeft[i]
			nw.pauseLeft[i] = 0
			nw.newLeg(i)
		}
		sp := nw.speed[i]
		if sp <= 0 {
			if nw.cfg.MaxSpeed <= 0 {
				// Static network: nodes never move.
				return
			}
			// Defensive: a zero-speed leg in a mobile network can never
			// reach its waypoint, so the node would freeze forever.
			// legSpeed guarantees fresh legs are positive; replace a
			// stale zero-speed leg and keep stepping.
			nw.newLeg(i)
			continue
		}
		dist := nw.pos[i].DistTo(nw.waypoint[i])
		travel := sp * remaining
		if travel < dist {
			f := travel / dist
			nw.pos[i].X += (nw.waypoint[i].X - nw.pos[i].X) * f
			nw.pos[i].Y += (nw.waypoint[i].Y - nw.pos[i].Y) * f
			remaining = 0
		} else {
			nw.pos[i] = nw.waypoint[i]
			remaining -= dist / sp
			if nw.cfg.Pause > 0 {
				nw.pauseLeft[i] = nw.cfg.Pause
			} else {
				nw.newLeg(i)
			}
		}
	}
}

// Step advances the random-waypoint mobility by dt seconds: each node
// moves toward its waypoint at its leg speed, pauses on arrival, then
// picks a new leg. dt must be non-negative.
func (nw *Network) Step(dt float64) error {
	if dt < 0 {
		return fmt.Errorf("topology: negative time step %g", dt)
	}
	moved := false
	for i := range nw.pos {
		p := nw.pos[i]
		nw.stepNode(i, dt)
		if nw.pos[i] != p {
			moved = true
		}
		// Incremental spatial-index maintenance: re-bucket the node only
		// if its final position crossed a cell boundary.
		nw.g.update(i, nw.pos[i])
	}
	if moved {
		nw.posGen++
	}
	return nil
}

// SetPositions replaces every node position (copying pts) and re-indexes
// the spatial grid. Positions must lie inside the deployment area; the
// waypoint state is unchanged, so mobility resumes toward the existing
// waypoints. It exists for tests and fixed layouts.
func (nw *Network) SetPositions(pts []Point) error {
	if len(pts) != nw.cfg.N {
		return fmt.Errorf("topology: %d positions for %d nodes", len(pts), nw.cfg.N)
	}
	for i, p := range pts {
		// Written so that NaN, which fails every comparison, is rejected.
		if !(p.X >= 0 && p.X <= nw.cfg.Width && p.Y >= 0 && p.Y <= nw.cfg.Height) {
			return fmt.Errorf("topology: position %d (%g, %g) outside the %g x %g area",
				i, p.X, p.Y, nw.cfg.Width, nw.cfg.Height)
		}
	}
	copy(nw.pos, pts)
	nw.g.rebuild(nw.pos)
	nw.posGen++
	return nil
}

// isLink reports whether i and j are within transmission range. The
// comparison is on squared distances — the same predicate as
// dist <= Range without the square root, which the adjacency scans pay
// once per candidate pair.
func (nw *Network) isLink(i, j int) bool {
	return i != j && nw.inRange(nw.pos[i], nw.pos[j])
}

// inRange is the link predicate on two positions: every adjacency build
// and check goes through it, so they all agree bit for bit.
func (nw *Network) inRange(p, q Point) bool {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx+dy*dy <= nw.rangeSq
}

// appendLinks appends node i's neighbors j > above to out in ascending
// index order and returns the extended slice: above = -1 gives the whole
// row, above = i the links a symmetric build records from i's side. It
// scans only the 3x3 cell block around the node, filtering each
// candidate bucket sequentially and then sorting the survivors — far
// fewer elements than the candidates — so the output order matches the
// linear scan exactly. It only reads the network, and reusing out across
// calls makes it allocation-free: every refill and the view's patch go
// through it, into rows ([]int) or the view's scratch ([]int32).
func appendLinks[T int | int32](nw *Network, i, above int, out []T) []T {
	var heads [9][]int
	m := nw.g.neighborhood(nw.pos[i], &heads)
	start := len(out)
	for k := 0; k < m; k++ {
		for _, j := range heads[k] {
			if j > above && nw.isLink(i, j) {
				out = append(out, T(j))
			}
		}
	}
	sortNeighbors(out[start:])
	return out
}

// mirror appends i to the row of each of its links j > i, up. A
// symmetric build calls it in ascending i after appending up to row i
// itself, so every row receives its j < i entries in ascending order
// before its own j > i run.
func mirror[T int | int32](rows [][]int, i int, up []T) {
	for _, j := range up {
		rows[j] = append(rows[j], i)
	}
}

// AdjacencyInto refills dst with the full neighbor structure and returns
// it, reusing dst's per-node slices (truncated and re-appended, so their
// capacity persists across snapshots). Passing the previous snapshot back
// in makes repeated refills — the adjacency view's resyncs, the
// reference engine's rebuilds — allocation-free in steady state. A dst
// without room for every node is replaced by rows carved out of one
// degree-sized slab (emptyRows). Contents and ordering are identical to
// BruteForceAdjacencyLists.
//
// The build is symmetric: node i only tests candidates j > i
// (appendLinks), recording each link in both directions (mirror), at
// half the distance checks of a per-node query. The view's bulk refill
// is the same scan and the same scatter, split in two (Adjacency).
func (nw *Network) AdjacencyInto(dst [][]int) [][]int {
	n := nw.cfg.N
	if cap(dst) >= n {
		dst = dst[:n]
		for i := range dst {
			dst[i] = dst[i][:0] // nil rows stay nil: isolated nodes match brute force
		}
	} else {
		dst = nw.emptyRows()
	}
	for i := 0; i < n; i++ {
		start := len(dst[i])
		dst[i] = appendLinks(nw, i, i, dst[i])
		mirror(dst, i, dst[i][start:])
	}
	return dst
}

// emptyRows returns n empty rows carved out of one slab, each with room
// for exactly its node's degree, so a cold build costs three allocations
// however large the network. A degree-0 row stays nil, as in
// BruteForceAdjacencyLists. Each row's capacity is capped at its degree,
// so a later append past it reallocates that row alone.
func (nw *Network) emptyRows() [][]int {
	n := nw.cfg.N
	deg := make([]int, n)
	total := 0
	var heads [9][]int
	for i := 0; i < n; i++ {
		m := nw.g.neighborhood(nw.pos[i], &heads)
		for k := 0; k < m; k++ {
			for _, j := range heads[k] {
				if j > i && nw.isLink(i, j) {
					deg[i]++
					deg[j]++
					total += 2
				}
			}
		}
	}
	slab := make([]int, total)
	rows := make([][]int, n)
	off := 0
	for i, d := range deg {
		if d > 0 {
			rows[i] = slab[off : off : off+d]
			off += d
		}
	}
	return rows
}

// BruteForceAdjacencyLists rebuilds the adjacency with the original
// O(n²) pairwise scan. It is retained as the pinned reference for the
// grid index: the differential tests assert element-for-element equality
// against it, and cmd/bench records the grid path's speedup over it.
func (nw *Network) BruteForceAdjacencyLists() [][]int {
	out := make([][]int, nw.cfg.N)
	for i := range out {
		var nbrs []int
		for j := range nw.pos {
			if nw.isLink(i, j) {
				nbrs = append(nbrs, j)
			}
		}
		out[i] = nbrs
	}
	return out
}

// Connected reports whether the current snapshot graph is connected. It
// walks the network's shared adjacency view (Rows).
func (nw *Network) Connected() bool {
	n := nw.cfg.N
	if n <= 1 {
		return true
	}
	rows := nw.Rows()
	visited := make([]bool, n)
	queue := make([]int, 1, n)
	visited[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range rows[u] {
			if !visited[v] {
				visited[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == n
}

// MeanDegree returns the average neighbor count over the network's shared
// adjacency view (Rows).
func (nw *Network) MeanDegree() float64 {
	var sum int
	for _, row := range nw.Rows() {
		sum += len(row)
	}
	return float64(sum) / float64(nw.cfg.N)
}
