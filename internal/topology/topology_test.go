package topology

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func mustNetwork(t testing.TB, cfg Config) *Network {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return nw
}

func TestValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name   string
		mut    func(*Config)
		expect error
	}{
		{"paper config", func(c *Config) {}, nil},
		{"static paused", func(c *Config) { c.MaxSpeed = 0; c.Pause = 30 }, nil},
		{"no nodes", func(c *Config) { c.N = 0 }, ErrInvalidTopology},
		{"zero width", func(c *Config) { c.Width = 0 }, ErrInvalidTopology},
		{"NaN width", func(c *Config) { c.Width = nan }, ErrInvalidTopology},
		{"NaN height", func(c *Config) { c.Height = nan }, ErrInvalidTopology},
		{"infinite width", func(c *Config) { c.Width = inf }, ErrInvalidTopology},
		{"zero range", func(c *Config) { c.Range = 0 }, ErrInvalidTopology},
		{"NaN range", func(c *Config) { c.Range = nan }, ErrInvalidTopology},
		{"infinite range", func(c *Config) { c.Range = inf }, ErrInvalidTopology},
		{"inverted speeds", func(c *Config) { c.MinSpeed = 5; c.MaxSpeed = 1 }, ErrInvalidTopology},
		{"NaN min speed", func(c *Config) { c.MinSpeed = nan }, ErrInvalidTopology},
		{"NaN max speed", func(c *Config) { c.MaxSpeed = nan }, ErrInvalidTopology},
		{"infinite max speed", func(c *Config) { c.MaxSpeed = inf }, ErrInvalidTopology},
		{"negative pause", func(c *Config) { c.Pause = -1 }, ErrInvalidTopology},
		{"NaN pause", func(c *Config) { c.Pause = nan }, ErrInvalidTopology},
		{"infinite pause", func(c *Config) { c.Pause = inf }, ErrInvalidTopology},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := PaperConfig(1)
			tt.mut(&c)
			err := c.Validate()
			_, newErr := New(c)
			if tt.expect == nil {
				if err != nil || newErr != nil {
					t.Fatalf("rejected a valid config: Validate %v, New %v", err, newErr)
				}
				return
			}
			if !errors.Is(err, tt.expect) {
				t.Fatalf("Validate = %v, want %v", err, tt.expect)
			}
			if !errors.Is(newErr, tt.expect) {
				t.Fatalf("New = %v, want %v", newErr, tt.expect)
			}
		})
	}
}

func TestPaperConfigValues(t *testing.T) {
	c := PaperConfig(7)
	if c.N != 100 || c.Width != 1000 || c.Height != 1000 || c.Range != 250 || c.MaxSpeed != 5 {
		t.Fatalf("paper config mismatch: %+v", c)
	}
}

func TestPlacementInBounds(t *testing.T) {
	nw := mustNetwork(t, PaperConfig(3))
	for i, p := range nw.Positions() {
		if p.X < 0 || p.X > 1000 || p.Y < 0 || p.Y > 1000 {
			t.Fatalf("node %d placed out of bounds: %+v", i, p)
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := mustNetwork(t, PaperConfig(5))
	b := mustNetwork(t, PaperConfig(5))
	for i := range a.Positions() {
		if a.Position(i) != b.Position(i) {
			t.Fatalf("same seed, different placement at node %d", i)
		}
	}
	if err := a.Step(10); err != nil {
		t.Fatal(err)
	}
	if err := b.Step(10); err != nil {
		t.Fatal(err)
	}
	for i := range a.Positions() {
		if a.Position(i) != b.Position(i) {
			t.Fatalf("same seed, different trajectory at node %d", i)
		}
	}
	c := mustNetwork(t, PaperConfig(6))
	if c.Position(0) == a.Position(0) && c.Position(1) == a.Position(1) {
		t.Fatal("different seeds produced identical placement")
	}
}

// symmetricIrreflexive reports whether no row lists its own node and
// every link appears in both endpoints' rows.
func symmetricIrreflexive(rows [][]int) bool {
	for i, row := range rows {
		for _, j := range row {
			if j == i || !slices.Contains(rows[j], i) {
				return false
			}
		}
	}
	return true
}

func TestLinksSymmetricIrreflexive(t *testing.T) {
	nw := mustNetwork(t, PaperConfig(11))
	if !symmetricIrreflexive(nw.Rows()) {
		t.Fatal("rows list a self-link or an asymmetric link")
	}
}

// TestNeighborsMatchDegreeAndRange checks each row against the range
// definition: every listed neighbor is within Range, and the row's
// length (the node's degree) counts every node within Range.
func TestNeighborsMatchDegreeAndRange(t *testing.T) {
	nw := mustNetwork(t, PaperConfig(13))
	for i, row := range nw.Rows() {
		deg := 0
		for j := 0; j < nw.N(); j++ {
			if j != i && nw.Position(i).DistTo(nw.Position(j)) <= 250 {
				deg++
			}
		}
		if len(row) != deg {
			t.Fatalf("node %d: %d neighbors vs %d nodes in range", i, len(row), deg)
		}
		for _, j := range row {
			if d := nw.Position(i).DistTo(nw.Position(j)); d > 250 {
				t.Fatalf("neighbor %d-%d at distance %g > range", i, j, d)
			}
		}
	}
}

// TestAdjacencyListsConsistent checks that the view's rows, a cold
// AdjacencyInto build and the per-node grid query agree row for row.
func TestAdjacencyListsConsistent(t *testing.T) {
	nw := mustNetwork(t, PaperConfig(17))
	rows, cold := nw.Rows(), nw.AdjacencyInto(nil)
	for i := range rows {
		if !slices.Equal(rows[i], cold[i]) || !slices.Equal(rows[i], appendLinks(nw, i, -1, []int(nil))) {
			t.Fatalf("node %d adjacency mismatch", i)
		}
	}
}

func TestConnectedLine(t *testing.T) {
	// Three nodes in a line at spacing 200 with range 250: connected.
	nw := mustNetwork(t, Config{N: 3, Width: 1000, Height: 10, Range: 250, Seed: 1})
	if err := nw.SetPositions([]Point{{0, 0}, {200, 0}, {400, 0}}); err != nil {
		t.Fatal(err)
	}
	if !nw.Connected() {
		t.Fatal("line network should be connected")
	}
	// Move the last node out of range of both others.
	if err := nw.SetPositions([]Point{{0, 0}, {200, 0}, {900, 0}}); err != nil {
		t.Fatal(err)
	}
	if nw.Connected() {
		t.Fatal("split network reported connected")
	}
}

func TestConnectedSingleNode(t *testing.T) {
	nw := mustNetwork(t, Config{N: 1, Width: 10, Height: 10, Range: 1, Seed: 1})
	if !nw.Connected() {
		t.Fatal("single node must count as connected")
	}
}

func TestStepMovesTowardWaypoint(t *testing.T) {
	cfg := Config{N: 1, Width: 1000, Height: 1000, Range: 100, MinSpeed: 2, MaxSpeed: 2, Seed: 9}
	nw := mustNetwork(t, cfg)
	start := nw.Position(0)
	wp := nw.waypoint[0]
	distBefore := start.DistTo(wp)
	if err := nw.Step(1); err != nil {
		t.Fatal(err)
	}
	moved := start.DistTo(nw.Position(0))
	if math.Abs(moved-2) > 1e-9 && distBefore > 2 {
		t.Fatalf("node moved %g m in 1 s at 2 m/s", moved)
	}
	distAfter := nw.Position(0).DistTo(wp)
	if distAfter >= distBefore {
		t.Fatalf("node did not approach waypoint: %g -> %g", distBefore, distAfter)
	}
}

func TestStepStaysInBounds(t *testing.T) {
	nw := mustNetwork(t, PaperConfig(21))
	for step := 0; step < 200; step++ {
		if err := nw.Step(5); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range nw.Positions() {
		if p.X < -1e-9 || p.X > 1000+1e-9 || p.Y < -1e-9 || p.Y > 1000+1e-9 {
			t.Fatalf("node %d escaped the area after mobility: %+v", i, p)
		}
	}
}

func TestStepZeroSpeedStatic(t *testing.T) {
	cfg := PaperConfig(23)
	cfg.MinSpeed, cfg.MaxSpeed = 0, 0
	nw := mustNetwork(t, cfg)
	before := nw.Positions()
	if err := nw.Step(100); err != nil {
		t.Fatal(err)
	}
	for i, p := range nw.Positions() {
		if p != before[i] {
			t.Fatalf("static network moved: node %d %+v -> %+v", i, before[i], p)
		}
	}
}

func TestStepRejectsNegative(t *testing.T) {
	nw := mustNetwork(t, PaperConfig(29))
	if err := nw.Step(-1); err == nil {
		t.Fatal("negative dt accepted")
	}
}

func TestPauseDelaysNewLeg(t *testing.T) {
	cfg := Config{N: 1, Width: 100, Height: 100, Range: 10, MinSpeed: 50, MaxSpeed: 50, Pause: 1000, Seed: 31}
	nw := mustNetwork(t, cfg)
	// At 50 m/s in a 100x100 box, the waypoint is reached within ~3 s;
	// then the node pauses for 1000 s.
	if err := nw.Step(5); err != nil {
		t.Fatal(err)
	}
	posAtPause := nw.Position(0)
	if err := nw.Step(10); err != nil {
		t.Fatal(err)
	}
	if nw.Position(0) != posAtPause {
		t.Fatalf("node moved during pause: %+v -> %+v", posAtPause, nw.Position(0))
	}
}

func TestMeanDegreeMatchesDensity(t *testing.T) {
	// Expected degree ≈ (n-1) * (pi r^2 / area) for uniform placement,
	// reduced by boundary effects; check the right ballpark.
	nw := mustNetwork(t, PaperConfig(37))
	got := nw.MeanDegree()
	ideal := 99 * math.Pi * 250 * 250 / 1e6 // ≈ 19.4 ignoring edges
	if got < 0.6*ideal || got > 1.1*ideal {
		t.Fatalf("mean degree %g implausible (ideal ~%g)", got, ideal)
	}
}

func TestDistTo(t *testing.T) {
	if d := (Point{0, 0}).DistTo(Point{3, 4}); d != 5 {
		t.Fatalf("DistTo = %g, want 5", d)
	}
	if d := (Point{1, 1}).DistTo(Point{1, 1}); d != 0 {
		t.Fatalf("DistTo self = %g", d)
	}
}

// Property: after arbitrary mobility, the rows stay symmetric and
// irreflexive, and every listed link is within range.
func TestMobilityInvariantsProperty(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		cfg := PaperConfig(seed)
		cfg.N = 25
		nw, err := New(cfg)
		if err != nil {
			return false
		}
		for s := 0; s < int(steps%20); s++ {
			if err := nw.Step(7); err != nil {
				return false
			}
		}
		rows := nw.Rows()
		for i, row := range rows {
			for _, j := range row {
				if !nw.isLink(i, j) {
					return false
				}
			}
		}
		return symmetricIrreflexive(rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
