package topology

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// adjacency_test.go pins the incremental view's contract: rows patched by
// StepDelta (or its two halves, PrepareStep and ApplyStep) are byte-identical — contents, ordering, nil-ness — to the
// brute-force reference recomputed from scratch after every mobility
// step, the reported deltas are exactly the set difference between
// consecutive snapshots, and the steady-state patch path allocates
// nothing.

// twinNetworks builds two identical networks from one config; stepping
// them in lockstep keeps their PRNG trajectories — and so their
// positions — equal, which is what lets the view on one be checked
// against brute force on the other.
func twinNetworks(t *testing.T, cfg Config) (*Network, *Network) {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// normRows canonicalises an adjacency for comparison: a row emptied by
// patching is empty-but-non-nil in the view, while brute force keeps
// nil — the contract is per-row contents and order, not nil-ness.
func normRows(rows [][]int) [][]int {
	out := make([][]int, len(rows))
	for i, r := range rows {
		if len(r) > 0 {
			out[i] = r
		}
	}
	return out
}

func pairSet(pairs []Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		if p.A >= p.B {
			return nil // ordering violation; caller fails on nil
		}
		m[p] = true
	}
	return m
}

// diffPairs returns the links present in after but not in before.
func diffPairs(before, after [][]int) map[Pair]bool {
	m := map[Pair]bool{}
	for i, row := range after {
		for _, j := range row {
			if i < j && !contains(before[i], j) {
				m[Pair{A: i, B: j}] = true
			}
		}
	}
	return m
}

func contains(row []int, j int) bool {
	for _, v := range row {
		if v == j {
			return true
		}
	}
	return false
}

// TestDifferentialAdjacencyViewQuick drives randomized mobility churn
// through the view and checks every step against brute force: row
// equality, delta-set exactness, and moved-node reporting. The generated
// configs cover cell-boundary crossings (speeds up to several cells per
// step), zero-speed legs (MinSpeed 0 draws redrawn by the leg logic),
// pause phases, and single-cell grids (range wider than the area).
// Pause lengths from none to long make the moved share of a step land on
// both sides of bulkMovedPercent, so the patch and the bulk refill are
// each checked; the test fails if either side goes unexercised.
func TestDifferentialAdjacencyViewQuick(t *testing.T) {
	var patchSteps, bulkSteps int
	check := func(seed uint64, nRaw, rangeRaw, speedRaw, dtRaw, pauseRaw uint8) bool {
		n := 2 + int(nRaw)%40
		rangeM := 40 + float64(rangeRaw)*1.5 // up to > area: one-cell grid
		maxSpeed := float64(speedRaw % 80)   // up to ~2 cells per 1s step
		dt := 0.25 + float64(dtRaw%16)/4
		pause := []float64{0, 0.5, 5, 30}[pauseRaw%4]
		cfg := Config{
			N: n, Width: 300, Height: 200, Range: rangeM,
			MinSpeed: 0, MaxSpeed: maxSpeed, Pause: pause, Seed: seed,
		}
		nv, nb := twinNetworks(t, cfg)
		view := nv.AdjacencyView()
		prev := normRows(nb.BruteForceAdjacencyLists())
		if !reflect.DeepEqual(normRows(view.Rows()), prev) {
			t.Log("initial rows diverged from brute force")
			return false
		}
		for step := 0; step < 12; step++ {
			posBefore := append([]Point(nil), nb.Positions()...)
			delta, err := view.StepDelta(dt)
			if err != nil {
				t.Log(err)
				return false
			}
			if err := nb.Step(dt); err != nil {
				t.Log(err)
				return false
			}
			if m := len(delta.Moved); m > 0 && 100*m >= bulkMovedPercent*n {
				bulkSteps++
			} else if m > 0 {
				patchSteps++
			}
			cur := normRows(nb.BruteForceAdjacencyLists())
			if !reflect.DeepEqual(normRows(view.Rows()), cur) {
				t.Logf("step %d: patched rows diverged from brute force", step)
				return false
			}
			// Moved = exactly the nodes whose position changed, ascending.
			var moved []int
			for i, p := range nb.Positions() {
				if p != posBefore[i] {
					moved = append(moved, i)
				}
			}
			if !reflect.DeepEqual(delta.Moved, moved) && !(len(delta.Moved) == 0 && len(moved) == 0) {
				t.Logf("step %d: Moved %v, want %v", step, delta.Moved, moved)
				return false
			}
			// Gained/Lost = exactly the snapshot set differences.
			gained, lost := pairSet(delta.Gained), pairSet(delta.Lost)
			if gained == nil || lost == nil {
				t.Logf("step %d: delta pair with A >= B", step)
				return false
			}
			if wantG := diffPairs(prev, cur); !reflect.DeepEqual(gained, wantG) {
				t.Logf("step %d: Gained %v, want %v", step, gained, wantG)
				return false
			}
			if wantL := diffPairs(cur, prev); !reflect.DeepEqual(lost, wantL) {
				t.Logf("step %d: Lost %v, want %v", step, lost, wantL)
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if patchSteps == 0 || bulkSteps == 0 {
		t.Fatalf("crossover not covered: %d patch steps, %d bulk steps", patchSteps, bulkSteps)
	}
	t.Logf("%d patch steps, %d bulk steps", patchSteps, bulkSteps)
}

// TestDifferentialAdjacencyViewResync pins staleness handling: mutations
// outside the view's control — plain Steps, SetPositions — must be
// picked up by the next Rows or StepDelta via the position version, and
// interleaving must keep the rows byte-identical to brute force. The
// network hands every caller its one view.
func TestDifferentialAdjacencyViewResync(t *testing.T) {
	cfg := Config{N: 30, Width: 400, Height: 400, Range: 150, MaxSpeed: 20, Seed: 77}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view := nw.AdjacencyView()
	assertMatch := func(what string) {
		t.Helper()
		if !reflect.DeepEqual(normRows(view.Rows()), normRows(nw.BruteForceAdjacencyLists())) {
			t.Fatalf("after %s: view diverged from brute force", what)
		}
	}
	assertMatch("build")

	// Plain Step behind the view's back.
	if err := nw.Step(1.5); err != nil {
		t.Fatal(err)
	}
	assertMatch("external Step")

	// SetPositions teleport.
	pos := append([]Point(nil), nw.Positions()...)
	for i := range pos {
		pos[i] = Point{X: float64((i * 37) % 400), Y: float64((i * 91) % 400)}
	}
	if err := nw.SetPositions(pos); err != nil {
		t.Fatal(err)
	}
	assertMatch("SetPositions")

	// The view belongs to the network: every caller gets the same one.
	if nw.AdjacencyView() != view {
		t.Fatal("a second AdjacencyView returned a different view")
	}

	// And a StepDelta on a stale view must resync before patching.
	if err := nw.Step(1); err != nil {
		t.Fatal(err)
	}
	if _, err := view.StepDelta(0.5); err != nil {
		t.Fatal(err)
	}
	assertMatch("StepDelta after external Step")
}

// TestDifferentialAdjacencyViewStatic pins the static fast path: with
// MaxSpeed 0 the position version never changes, StepDelta reports an
// empty delta, and the mobility PRNG is untouched — matching
// Network.Step's behavior for static networks exactly.
func TestDifferentialAdjacencyViewStatic(t *testing.T) {
	cfg := Config{N: 50, Width: 500, Height: 500, Range: 180, MaxSpeed: 0, Seed: 5}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view := nw.AdjacencyView()
	rows0 := view.Rows()
	ver0 := nw.posGen
	for i := 0; i < 5; i++ {
		d, err := view.StepDelta(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Moved) != 0 || len(d.Gained) != 0 || len(d.Lost) != 0 {
			t.Fatalf("static network produced a non-empty delta: %+v", d)
		}
	}
	if nw.posGen != ver0 {
		t.Fatal("static steps bumped the position version")
	}
	// Same backing rows object: the view never rebuilt.
	if &rows0[0] != &view.Rows()[0] {
		t.Fatal("static view rebuilt its rows")
	}
	// The twin network's PRNG agrees after the same (draw-free) steps.
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := twin.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(nw.Positions(), twin.Positions()) {
		t.Fatal("static positions diverged from plain-Step twin")
	}
}

// TestAdjacencyViewStepAllocsSteadyState pins the perf contract the view
// exists for: once row capacities have reached their high-water mark,
// StepDelta + Rows run allocation-free — static, and mobile on both
// sides of bulkMovedPercent (continuous motion takes the bulk refill,
// long pauses the patch).
func TestAdjacencyViewStepAllocsSteadyState(t *testing.T) {
	cases := []struct {
		name           string
		cfg            Config
		minPct, maxPct int // moved share the case must stay within
	}{
		{"bulk", Config{N: 200, Width: 1000, Height: 1000, Range: 250, MaxSpeed: 10, Seed: 9}, bulkMovedPercent, 100},
		{"patch", Config{N: 200, Width: 1000, Height: 1000, Range: 250, MinSpeed: 5, MaxSpeed: 20, Pause: 300, Seed: 9}, 0, bulkMovedPercent - 1},
		{"static", Config{N: 200, Width: 1000, Height: 1000, Range: 250, Seed: 9}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			view := nw.AdjacencyView()
			view.Rows()
			for i := 0; i < 300; i++ { // reach the row-capacity high-water mark
				if _, err := view.StepDelta(1); err != nil {
					t.Fatal(err)
				}
			}
			moved := 0
			allocs := testing.AllocsPerRun(100, func() {
				d, err := view.StepDelta(1)
				if err != nil {
					t.Fatal(err)
				}
				if pct := 100 * len(d.Moved) / tc.cfg.N; pct < tc.minPct || pct > tc.maxPct {
					t.Fatalf("moved %d%% of nodes, outside the case's [%d, %d]", pct, tc.minPct, tc.maxPct)
				}
				moved += len(d.Moved)
				view.Rows()
			})
			if allocs > 0 {
				t.Fatalf("steady-state StepDelta allocated %.2f objects per step, want 0", allocs)
			}
			if moved == 0 && tc.maxPct > 0 {
				t.Fatal("no node moved: the mobile case measured the static path")
			}
		})
	}
}

// TestAdjacencyViewRejectsNegativeStep mirrors Network.Step's contract.
func TestAdjacencyViewRejectsNegativeStep(t *testing.T) {
	nw, err := New(Config{N: 3, Width: 100, Height: 100, Range: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AdjacencyView().StepDelta(-1); err == nil {
		t.Fatal("negative dt accepted")
	}
	if _, err := nw.AdjacencyView().StepDelta(math.Inf(-1)); err == nil {
		t.Fatal("negative-infinite dt accepted")
	}
}

// TestAdjacencyPrepareApplyMatchesStepDelta pins the split of a step:
// one twin steps through StepDelta, the other through PrepareStep on a
// second goroutine, while this goroutine reads every row, then
// ApplyStep. The prepare must leave the rows exactly as they were, and
// after every step the twins must agree on rows, delta and positions,
// under full churn (the bulk refill) and pauses (the patch). Under -race
// the concurrent row reads make any write to the rows during a prepare
// a reported race.
func TestAdjacencyPrepareApplyMatchesStepDelta(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		bulk bool // every step must take the bulk refill, else the patch
	}{
		{"bulk", Config{N: 300, Width: 1200, Height: 1200, Range: 250, MaxSpeed: 10, Seed: 21}, true},
		{"patch", Config{N: 300, Width: 1200, Height: 1200, Range: 250, MinSpeed: 5, MaxSpeed: 20, Pause: 120, Seed: 21}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			whole, split := twinNetworks(t, tc.cfg)
			for range 50 { // past every node's first leg, into the pause regime
				if err := whole.Step(20); err != nil {
					t.Fatal(err)
				}
				if err := split.Step(20); err != nil {
					t.Fatal(err)
				}
			}
			wv, sv := whole.AdjacencyView(), split.AdjacencyView()
			changed := 0
			for step := 0; step < 40; step++ {
				want, err := wv.StepDelta(1)
				if err != nil {
					t.Fatal(err)
				}

				rows := sv.Rows()
				before := make([][]int, len(rows))
				for i, r := range rows {
					before[i] = slices.Clone(r)
				}
				done := make(chan error, 1)
				go func() { done <- sv.PrepareStep(1) }()
				sum := 0
				for _, r := range rows {
					for _, j := range r {
						sum += j
					}
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if sum < 0 {
					t.Fatal("negative node index")
				}
				if !reflect.DeepEqual(rows, before) || !reflect.DeepEqual(sv.Rows(), before) {
					t.Fatalf("step %d: PrepareStep changed the rows", step)
				}
				got, err := sv.ApplyStep()
				if err != nil {
					t.Fatal(err)
				}

				if bulk := 100*len(got.Moved) >= bulkMovedPercent*tc.cfg.N; len(got.Moved) > 0 && bulk != tc.bulk {
					t.Fatalf("step %d: %d of %d nodes moved, outside the case's refresh", step, len(got.Moved), tc.cfg.N)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: split delta %+v, StepDelta's %+v", step, got, want)
				}
				if !reflect.DeepEqual(sv.Rows(), wv.Rows()) {
					t.Fatalf("step %d: split rows diverged from StepDelta's", step)
				}
				if !reflect.DeepEqual(split.Positions(), whole.Positions()) {
					t.Fatalf("step %d: split positions diverged from StepDelta's", step)
				}
				changed += len(got.Gained) + len(got.Lost)
			}
			if changed == 0 {
				t.Fatal("no step changed a link")
			}
		})
	}
}

// TestAdjacencyStepHalvesInOrder pins the halves' sequencing: an
// ApplyStep needs a prepared step, a second PrepareStep before it is
// refused without moving the network, and a refused negative step leaves
// nothing pending.
func TestAdjacencyStepHalvesInOrder(t *testing.T) {
	nw, err := New(Config{N: 40, Width: 400, Height: 400, Range: 120, MaxSpeed: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	view := nw.AdjacencyView()
	if _, err := view.ApplyStep(); err == nil {
		t.Fatal("ApplyStep without a prepared step accepted")
	}
	if err := view.PrepareStep(-1); err == nil {
		t.Fatal("negative dt accepted")
	}
	if _, err := view.ApplyStep(); err == nil {
		t.Fatal("a refused PrepareStep left a step pending")
	}
	if err := view.PrepareStep(1); err != nil {
		t.Fatal(err)
	}
	pos := nw.Positions()
	if err := view.PrepareStep(1); err == nil {
		t.Fatal("second PrepareStep before ApplyStep accepted")
	}
	if !reflect.DeepEqual(nw.Positions(), pos) {
		t.Fatal("refused PrepareStep moved the network")
	}
	if _, err := view.ApplyStep(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normRows(view.Rows()), normRows(nw.BruteForceAdjacencyLists())) {
		t.Fatal("rows diverged from brute force after the split step")
	}
}

// TestNetworkRowsAreTheViewRows pins Network.Rows as the adjacency
// view's shared rows — the same backing structure, not a copy — and
// checks they track the network through both a view step and a plain
// Step.
func TestNetworkRowsAreTheViewRows(t *testing.T) {
	nw, err := New(Config{N: 80, Width: 600, Height: 600, Range: 150, MaxSpeed: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	view := nw.AdjacencyView()
	check := func(when string) {
		t.Helper()
		rows := nw.Rows()
		if &rows[0] != &view.Rows()[0] {
			t.Fatalf("%s: Network.Rows is not the view's rows", when)
		}
		if !slices.EqualFunc(rows, nw.BruteForceAdjacencyLists(), slices.Equal[[]int]) {
			t.Fatalf("%s: rows differ from brute force", when)
		}
	}
	check("initial")
	if _, err := view.StepDelta(5); err != nil {
		t.Fatal(err)
	}
	check("after StepDelta")
	if err := nw.Step(5); err != nil {
		t.Fatal(err)
	}
	check("after Step")
}

// bfsConnected reports whether rows describe a connected graph, by a
// breadth-first search from node 0.
func bfsConnected(rows [][]int) bool {
	if len(rows) <= 1 {
		return true
	}
	seen := make([]bool, len(rows))
	seen[0] = true
	queue, count := []int{0}, 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range rows[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == len(rows)
}

// TestDifferentialNetworkQueries pins the network's link queries —
// Connected, MeanDegree and Rows — to the brute-force scan on static,
// continuous and paused random-waypoint networks, after New, a plain
// Step (which moves the network outside the view), the view's StepDelta
// and SetPositions. Each query reads its own twin network, so it is the
// first reader after every change: one that skipped the view's resync
// would answer for the previous snapshot. Packing every node into one
// point, then restoring the spread layout, flips both connectivity and
// degree, so a stale answer cannot match by chance.
func TestDifferentialNetworkQueries(t *testing.T) {
	kinds := []struct {
		name string
		cfg  Config
	}{
		{"static", Config{N: 40, Width: 1000, Height: 1000, Range: 150, Seed: 3}},
		{"continuous", Config{N: 40, Width: 1000, Height: 1000, Range: 150, MaxSpeed: 20, Seed: 4}},
		{"paused", Config{N: 40, Width: 1000, Height: 1000, Range: 150, MinSpeed: 5, MaxSpeed: 20, Pause: 30, Seed: 5}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			conn, deg, rows := mustNetwork(t, k.cfg), mustNetwork(t, k.cfg), mustNetwork(t, k.cfg)
			twins := []*Network{conn, deg, rows}
			check := func(when string) {
				t.Helper()
				brute := conn.BruteForceAdjacencyLists()
				sum := 0
				for _, row := range brute {
					sum += len(row)
				}
				if got, want := conn.Connected(), bfsConnected(brute); got != want {
					t.Fatalf("after %s: Connected = %v, brute force %v", when, got, want)
				}
				if got, want := deg.MeanDegree(), float64(sum)/float64(len(brute)); got != want {
					t.Fatalf("after %s: MeanDegree = %g, brute force %g", when, got, want)
				}
				if !slices.EqualFunc(rows.Rows(), brute, slices.Equal[[]int]) {
					t.Fatalf("after %s: Rows differ from brute force", when)
				}
			}
			each := func(what string, op func(nw *Network) error) {
				t.Helper()
				for _, nw := range twins {
					if err := op(nw); err != nil {
						t.Fatal(err)
					}
				}
				check(what)
			}
			check("New")
			each("Step", func(nw *Network) error { return nw.Step(10) })
			each("StepDelta", func(nw *Network) error {
				_, err := nw.AdjacencyView().StepDelta(10)
				return err
			})
			spread := conn.Positions()
			packed := make([]Point, len(spread))
			for i := range packed {
				packed[i] = Point{X: k.cfg.Width / 2, Y: k.cfg.Height / 2}
			}
			each("SetPositions packed", func(nw *Network) error { return nw.SetPositions(packed) })
			each("SetPositions spread", func(nw *Network) error { return nw.SetPositions(spread) })
			if conn.Connected() {
				t.Fatal("the spread layout is connected, so packing flips nothing")
			}
		})
	}
}
