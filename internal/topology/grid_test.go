package topology

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// grid_test.go pins the cell-indexed neighbor queries element-for-element
// to the brute-force O(n²) scan: same membership AND same (ascending)
// order, across random configurations, cell-boundary placements,
// Range > Width degenerate grids, and positions mutated by Step under
// mobility. The multihop differential matrix relies on this equivalence
// to keep Simulate byte-identical to SimulateReference.

// checkGridAgainstBrute asserts every grid build — a cold AdjacencyInto,
// the per-node query the view's patch uses, and the view's rows —
// agrees with the brute scan on the network's current snapshot.
func checkGridAgainstBrute(t *testing.T, nw *Network) {
	t.Helper()
	brute := nw.BruteForceAdjacencyLists()
	adj := nw.AdjacencyInto(nil)
	rows := nw.Rows()
	for i := 0; i < nw.N(); i++ {
		if !reflect.DeepEqual(adj[i], brute[i]) {
			t.Fatalf("node %d: grid adjacency %v != brute %v", i, adj[i], brute[i])
		}
		if got := appendLinks(nw, i, -1, []int(nil)); !reflect.DeepEqual(got, brute[i]) {
			t.Fatalf("node %d: grid query %v != brute %v", i, got, brute[i])
		}
		if !slices.Equal(rows[i], brute[i]) {
			t.Fatalf("node %d: view row %v != brute %v", i, rows[i], brute[i])
		}
	}
}

// TestDifferentialGridMatchesBruteForce sweeps a matrix of configurations
// — sparse, dense, tall/thin areas, Range larger than either dimension
// (single-cell grid), single node — and checks the static snapshot plus a
// sequence of mobility steps that force incremental cell moves.
func TestDifferentialGridMatchesBruteForce(t *testing.T) {
	cfgs := []Config{
		{N: 100, Width: 1000, Height: 1000, Range: 250, MinSpeed: 0, MaxSpeed: 5},
		{N: 50, Width: 1000, Height: 1000, Range: 180, MinSpeed: 1, MaxSpeed: 10},
		{N: 40, Width: 2000, Height: 100, Range: 150, MinSpeed: 0, MaxSpeed: 20, Pause: 2},
		{N: 30, Width: 300, Height: 300, Range: 500, MinSpeed: 0, MaxSpeed: 5},  // Range > Width: one cell
		{N: 25, Width: 100, Height: 900, Range: 120, MinSpeed: 0, MaxSpeed: 3},  // 1 column, many rows
		{N: 12, Width: 1000, Height: 1000, Range: 90, MinSpeed: 0, MaxSpeed: 5}, // mostly empty cells
		{N: 1, Width: 50, Height: 50, Range: 25, MinSpeed: 0, MaxSpeed: 1},
		{N: 200, Width: 1414, Height: 1414, Range: 250, MinSpeed: 0, MaxSpeed: 5},
	}
	for ci, cfg := range cfgs {
		for seed := uint64(0); seed < 3; seed++ {
			cfg.Seed = seed*97 + uint64(ci)
			nw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGridAgainstBrute(t, nw)
			// Mobility: long steps so nodes cross cells and finish legs.
			for s := 0; s < 6; s++ {
				if err := nw.Step(37); err != nil {
					t.Fatal(err)
				}
				checkGridAgainstBrute(t, nw)
			}
		}
	}
}

// TestDifferentialGridPopulationScale checks the grid at the bench's
// n=10000 configuration — the regime the fire-slot calendar unlocked for
// the simulator, where the adjacency build itself must stay O(n·deg).
// The full brute-force cross-check is O(n²) (~10⁸ IsLink calls), so the
// static snapshot is verified wholesale once and a mobility step is
// verified on a sampled node subset.
func TestDifferentialGridPopulationScale(t *testing.T) {
	if testing.Short() {
		t.Skip("n=10000 brute-force cross-check is slow")
	}
	cfg := Config{N: 10000, Width: 10000, Height: 10000, Range: 250, MinSpeed: 0, MaxSpeed: 5, Seed: 29}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adj := nw.AdjacencyInto(nil)
	brute := nw.BruteForceAdjacencyLists()
	for i := range adj {
		if !reflect.DeepEqual(adj[i], brute[i]) {
			t.Fatalf("node %d: grid %v, brute force %v", i, adj[i], brute[i])
		}
	}
	if err := nw.Step(37); err != nil {
		t.Fatal(err)
	}
	adj = nw.AdjacencyInto(adj)
	for i := 0; i < cfg.N; i += 97 { // ~100 sampled nodes post-step
		var want []int
		for j := 0; j < cfg.N; j++ {
			if nw.isLink(i, j) {
				want = append(want, j)
			}
		}
		got := adj[i]
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d after step: grid %v, sampled scan %v", i, got, want)
		}
	}
}

// TestDifferentialGridCellBoundaries places nodes exactly on cell
// boundaries — multiples of the cell extent, the area edges, and the far
// corner (X == Width, which must clamp into the last column).
func TestDifferentialGridCellBoundaries(t *testing.T) {
	cfg := Config{N: 12, Width: 1000, Height: 1000, Range: 250, Seed: 1}
	nw := mustNetwork(t, cfg)
	pts := []Point{
		{0, 0}, {250, 0}, {500, 0}, {750, 0}, {1000, 0},
		{0, 250}, {250, 250}, {1000, 250},
		{0, 1000}, {500, 500}, {1000, 1000}, {250, 750},
	}
	if err := nw.SetPositions(pts); err != nil {
		t.Fatal(err)
	}
	checkGridAgainstBrute(t, nw)
	// Boundary nodes at exact Range distance must be linked (<=, not <).
	if !nw.isLink(0, 1) {
		t.Fatal("nodes at exactly Range distance must be neighbors")
	}
}

// TestDifferentialGridProperty drives random (seed, steps) pairs through
// the full query surface via testing/quick.
func TestDifferentialGridProperty(t *testing.T) {
	f := func(seed uint64, steps uint8, big bool) bool {
		cfg := Config{N: 35, Width: 800, Height: 600, Range: 140, MinSpeed: 0, MaxSpeed: 12, Seed: seed}
		if big {
			cfg.Range = 900 // exceeds both dimensions: single-cell grid
		}
		nw, err := New(cfg)
		if err != nil {
			return false
		}
		for s := 0; s < int(steps%8); s++ {
			if err := nw.Step(11); err != nil {
				return false
			}
		}
		brute := nw.BruteForceAdjacencyLists()
		adj, rows := nw.AdjacencyInto(nil), nw.Rows()
		for i := range adj {
			if !reflect.DeepEqual(adj[i], brute[i]) || !slices.Equal(rows[i], brute[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAdjacencyIntoRefill pins the reusable snapshot path: refilling the
// same buffer across mobility steps must match a cold build
// element-for-element, and must not allocate per-node slices once warm.
func TestAdjacencyIntoRefill(t *testing.T) {
	nw := mustNetwork(t, PaperConfig(43))
	var buf [][]int
	for s := 0; s < 5; s++ {
		buf = nw.AdjacencyInto(buf)
		fresh := nw.AdjacencyInto(nil)
		for i := range fresh {
			if len(buf[i]) != len(fresh[i]) {
				t.Fatalf("step %d node %d: refill len %d != fresh %d", s, i, len(buf[i]), len(fresh[i]))
			}
			for k := range fresh[i] {
				if buf[i][k] != fresh[i][k] {
					t.Fatalf("step %d node %d: refill %v != fresh %v", s, i, buf[i], fresh[i])
				}
			}
		}
		if err := nw.Step(23); err != nil {
			t.Fatal(err)
		}
	}
	// Warm refills allocate nothing: capacities persist in the buffer.
	if allocs := testing.AllocsPerRun(10, func() {
		buf = nw.AdjacencyInto(buf)
	}); allocs != 0 {
		t.Fatalf("warm AdjacencyInto allocated %.1f objects per refill, want 0", allocs)
	}
}

// TestAdjacencyIntoColdAllocs pins the cold build: AdjacencyInto without
// a buffer carves every row out of one slab, so it allocates the same
// small number of times at any population, and its rows still equal
// brute force element for element (nil for isolated nodes).
func TestAdjacencyIntoColdAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{100, 1000} {
		side := 1000 * math.Sqrt(float64(n)/100) // constant density
		nw := mustNetwork(t, Config{N: n, Width: side, Height: side, Range: 250, MaxSpeed: 5, Seed: 3})
		if !reflect.DeepEqual(nw.AdjacencyInto(nil), nw.BruteForceAdjacencyLists()) {
			t.Fatalf("n=%d: cold build diverged from brute force", n)
		}
		allocs := testing.AllocsPerRun(5, func() { nw.AdjacencyInto(nil) })
		if allocs > 3 {
			t.Fatalf("n=%d: cold AdjacencyInto allocated %.1f objects, want at most 3", n, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Fatalf("cold AdjacencyInto allocations depend on n: %v", counts)
	}
}

func TestSetPositionsValidates(t *testing.T) {
	nw := mustNetwork(t, Config{N: 2, Width: 100, Height: 100, Range: 50, Seed: 1})
	if err := nw.SetPositions([]Point{{0, 0}}); err == nil {
		t.Fatal("wrong-length position set accepted")
	}
	nan := math.NaN()
	for _, bad := range []Point{{101, 0}, {0, -1}, {nan, 0}, {0, nan}, {math.Inf(1), 0}} {
		if err := nw.SetPositions([]Point{{0, 0}, bad}); err == nil {
			t.Fatalf("out-of-area position %v accepted", bad)
		}
	}
	if err := nw.SetPositions([]Point{{0, 0}, {100, 100}}); err != nil {
		t.Fatalf("boundary position rejected: %v", err)
	}
}

// TestStepZeroSpeedLegDoesNotFreeze is the regression test for the
// random-waypoint freeze: a node whose current leg carries speed exactly
// 0 (reachable with the paper's MinSpeed = 0) used to dwell forever —
// Step never advanced it and never started a new leg. Now Step replaces
// the dead leg and the node keeps moving.
func TestStepZeroSpeedLegDoesNotFreeze(t *testing.T) {
	cfg := Config{N: 3, Width: 1000, Height: 1000, Range: 250, MinSpeed: 0, MaxSpeed: 5, Seed: 7}
	nw := mustNetwork(t, cfg)
	// Inject the pathological draw directly: a zero-speed leg toward a
	// distant waypoint.
	nw.speed[0] = 0
	nw.waypoint[0] = Point{X: nw.cfg.Width - nw.pos[0].X, Y: nw.cfg.Height - nw.pos[0].Y}
	before := nw.Position(0)
	if err := nw.Step(10); err != nil {
		t.Fatal(err)
	}
	if nw.speed[0] <= 0 {
		t.Fatalf("zero-speed leg survived Step: speed %g", nw.speed[0])
	}
	if nw.Position(0) == before {
		t.Fatal("node frozen: did not move during a 10 s step of a mobile network")
	}
	// The redrawn state must keep making progress leg after leg.
	for s := 0; s < 20; s++ {
		prev := nw.Position(0)
		if err := nw.Step(60); err != nil {
			t.Fatal(err)
		}
		if nw.Position(0) == prev {
			t.Fatalf("node stalled again at step %d", s)
		}
	}
}

// Fresh legs must never carry non-positive speed in a mobile network.
func TestLegSpeedPositive(t *testing.T) {
	cfg := Config{N: 1, Width: 100, Height: 100, Range: 10, MinSpeed: 0, MaxSpeed: 5, Seed: 3}
	nw := mustNetwork(t, cfg)
	for k := 0; k < 1000; k++ {
		nw.newLeg(0)
		if nw.speed[0] <= 0 {
			t.Fatalf("leg %d drew non-positive speed %g", k, nw.speed[0])
		}
	}
	// Static networks keep zero speed by design.
	static := mustNetwork(t, Config{N: 1, Width: 100, Height: 100, Range: 10, Seed: 3})
	static.newLeg(0)
	if static.speed[0] != 0 {
		t.Fatalf("static network drew speed %g, want 0", static.speed[0])
	}
}
