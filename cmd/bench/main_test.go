package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// End-to-end smoke: the quick profile at one iteration per benchmark must
// produce a parseable BENCH_sim.json covering every scenario under both
// engines, with sane numbers. Every scenario's check runs first, so the
// multihop rows match the reference loop and the replication pool
// matches one worker.
func TestBenchWritesJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := run(context.Background(), []string{"-quick", "-benchtime", "1x", "-out", out}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if f.Profile != "quick" || f.GoVersion == "" || f.Generated == "" {
		t.Fatalf("metadata incomplete: %+v", f)
	}
	// Scenario → engine labels. Most pairs are fast/reference; the
	// detection scenario relabels to observed/plain (same engine,
	// observer on vs off), the adjacency scenarios to delta/rebuild
	// (adjacency view vs Step + AdjacencyInto), the calendar scenarios
	// to ring/scan (bucket ring vs eager min-scan) and the replication
	// scenario to pool/serial (GOMAXPROCS workers vs one).
	wantScenarios := map[string][2]string{
		"macsim/basic-n20-w336":                  {"fast", "reference"},
		"macsim/basic-n50-w879":                  {"fast", "reference"},
		"calendar/sparse-n20-w336":               {"ring", "scan"},
		"calendar/dense-n10000-w1664":            {"ring", "scan"},
		"macsim/detection-n10-w166":              {"observed", "plain"},
		"multihop/sparse-n50-w116":               {"fast", "reference"},
		"replicate/sparse-n50-w116":              {"pool", "serial"},
		"multihop/mobile-n100-w26":               {"fast", "reference"},
		"multihop/mobile-n500-w26":               {"fast", "reference"},
		"multihop/mobile-n1000-w26":              {"fast", "reference"},
		"multihop/mobile-n5000-w26":              {"fast", "reference"},
		"multihop/mobile-n10000-w26":             {"fast", "reference"},
		"multihop/mobile-n10000-w26-warm":        {"fast", "reference"},
		"topology/delta-vs-rebuild-n1000":        {"delta", "rebuild"},
		"topology/delta-vs-rebuild-n1000-paused": {"delta", "rebuild"},
		"topology/adjacency-n500":                {"fast", "reference"},
		"topology/adjacency-n1000":               {"fast", "reference"},
		"topology/adjacency-n10000":              {"fast", "reference"},
	}
	// Layer rows: one package benchmark each, no reference, 0 allocs/op,
	// run at least layerMinIters times whatever the -benchtime count.
	wantLayers := []string{"backoff/draw"}
	if len(f.Benchmarks) != 2*len(wantScenarios)+len(wantLayers) {
		t.Fatalf("got %d benchmark entries, want %d", len(f.Benchmarks), 2*len(wantScenarios)+len(wantLayers))
	}
	byName := map[string]EngineResult{}
	for _, b := range f.Benchmarks {
		byName[b.Name] = b
		if b.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %g", b.Name, b.NsPerOp)
		}
		if b.EventsPerRun <= 0 || b.EventsPerSec <= 0 {
			t.Errorf("%s: missing event rate (%d events, %g/s)", b.Name, b.EventsPerRun, b.EventsPerSec)
		}
	}
	for _, name := range wantLayers {
		if row, ok := byName[name]; !ok || row.AllocsPerOp != 0 {
			t.Errorf("layer row %s: present %v, %d allocs/op, want 0", name, ok, row.AllocsPerOp)
		}
		if row := byName[name]; row.Iterations < layerMinIters {
			t.Errorf("layer row %s: %d iterations at -benchtime 1x, want the %d floor", name, row.Iterations, layerMinIters)
		}
	}
	// The topology delta rows are warmed past their buffer growth before
	// timing, so both sides read their steady state: no allocation.
	for _, name := range []string{
		"topology/delta-vs-rebuild-n1000/delta", "topology/delta-vs-rebuild-n1000/rebuild",
		"topology/delta-vs-rebuild-n1000-paused/delta", "topology/delta-vs-rebuild-n1000-paused/rebuild",
	} {
		if row := byName[name]; row.AllocsPerOp != 0 {
			t.Errorf("%s: %d allocs/op after the warm-up, want 0", name, row.AllocsPerOp)
		}
	}
	for s, labels := range wantScenarios {
		fast, okF := byName[s+"/"+labels[0]]
		ref, okR := byName[s+"/"+labels[1]]
		if !okF || !okR {
			t.Fatalf("scenario %s missing an engine entry", s)
		}
		if fast.EventsPerRun != ref.EventsPerRun {
			t.Errorf("%s: engines disagree on event count: %d vs %d — trajectories diverged",
				s, fast.EventsPerRun, ref.EventsPerRun)
		}
	}
}

func TestBenchOnlyFilter(t *testing.T) {
	out := filepath.Join(t.TempDir(), "b.json")
	if err := run(context.Background(), []string{"-quick", "-benchtime", "1x", "-only", "macsim/basic-n20", "-out", out}); err != nil {
		t.Fatal(err)
	}
	var f File
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("filter kept %d entries, want 2", len(f.Benchmarks))
	}
	if err := run(context.Background(), []string{"-quick", "-only", "nosuch", "-out", out}); err == nil {
		t.Fatal("unknown -only filter did not error")
	}
}

// A benchmark that fails makes testing.Benchmark return a zero result:
// measure must report it, not record a row of zeros.
func TestMeasureFailedBenchmark(t *testing.T) {
	if row, err := measure("layer", "draw", 1, func(b *testing.B) { b.Fatal("boom") }); err == nil {
		t.Fatalf("failed benchmark recorded as %+v", row)
	}
	row, err := measure("layer", "draw", 1, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
	})
	if err != nil || row.Iterations == 0 {
		t.Fatalf("passing benchmark: %+v, %v", row, err)
	}
	if _, err := measureOp("op", "fast", 1, func() error { return errors.New("op failed") }); err == nil || !strings.Contains(err.Error(), "op failed") {
		t.Fatalf("failing op: %v", err)
	}
}

// A scenario row's allocs/op must repeat exactly: measuring the same
// quick-profile multihop row twice in one process at a few iterations
// reads the same count, whatever the runtime allocates in the
// background meanwhile.
func TestScenarioAllocsRepeat(t *testing.T) {
	const name = "multihop/mobile-n10000-w26"
	suite, err := scenarios(true)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(suite, func(sc scenario) bool { return sc.name == name })
	if i < 0 {
		t.Fatalf("scenario %s missing", name)
	}
	sc := suite[i]
	benchtime := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "3x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", benchtime)
	for _, op := range []struct {
		engine string
		fn     func() error
	}{{"fast", sc.runFast}, {"reference", sc.runRef}} {
		t.Run(op.engine, func(t *testing.T) {
			first, err := measureOp(name, op.engine, sc.events, op.fn)
			if err != nil {
				t.Fatal(err)
			}
			second, err := measureOp(name, op.engine, sc.events, op.fn)
			if err != nil {
				t.Fatal(err)
			}
			if first.AllocsPerOp != second.AllocsPerOp || first.AllocsPerOp == 0 {
				t.Errorf("%s/%s: allocs/op %d then %d, want one nonzero count", name, op.engine, first.AllocsPerOp, second.AllocsPerOp)
			}
		})
	}
}

var allocSink []byte

// measureOp must report an op's own allocation count even when the
// process-wide counter also sees allocations from elsewhere: here the
// op makes 5 allocations a call, plus 10 more on the first timed
// iteration and on the first single-op pass, standing in for the
// runtime's background allocations.
func TestMeasureOpIgnoresStrayAllocations(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "3x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", benchtime)
	calls := 0
	row, err := measureOp("op", "fast", 1, func() error {
		calls++
		n := 5
		// Call 1 is testing.Benchmark's probe run, calls 2-4 the timed
		// loop, calls 5-7 the single-op passes.
		if calls == 2 || calls == 5 {
			n += 10
		}
		for range n {
			allocSink = make([]byte, 64)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.AllocsPerOp != 5 {
		t.Fatalf("allocs/op = %d over %d calls, want the op's own 5", row.AllocsPerOp, calls)
	}
}
