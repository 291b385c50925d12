package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// End-to-end smoke: the quick profile at one iteration per benchmark must
// produce a parseable BENCH_sim.json covering every scenario under both
// engines, with sane numbers.
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
	// (adjacency view vs Step + AdjacencyInto) and the calendar scenarios
	// to ring/scan (bucket ring vs eager min-scan).
	wantScenarios := map[string][2]string{
		"macsim/basic-n20-w336":                  {"fast", "reference"},
		"macsim/basic-n50-w879":                  {"fast", "reference"},
		"calendar/sparse-n20-w336":               {"ring", "scan"},
		"calendar/dense-n10000-w1664":            {"ring", "scan"},
		detectionName:                            {"observed", "plain"},
		"multihop/sparse-n50-w116":               {"fast", "reference"},
		"multihop/mobile-n100-w26":               {"fast", "reference"},
		"multihop/mobile-n500-w26":               {"fast", "reference"},
		"multihop/mobile-n1000-w26":              {"fast", "reference"},
		"multihop/mobile-n5000-w26":              {"fast", "reference"},
		"multihop/mobile-n10000-w26":             {"fast", "reference"},
		"topology/delta-vs-rebuild-n1000":        {"delta", "rebuild"},
		"topology/delta-vs-rebuild-n1000-paused": {"delta", "rebuild"},
		"topology/adjacency-n500":                {"fast", "reference"},
		"topology/adjacency-n1000":               {"fast", "reference"},
		"topology/adjacency-n10000":              {"fast", "reference"},
	}
	if len(f.Benchmarks) != 2*len(wantScenarios) {
		t.Fatalf("got %d benchmark entries, want %d", len(f.Benchmarks), 2*len(wantScenarios))
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
		if _, ok := f.Speedups[s]; !ok {
			t.Errorf("scenario %s missing a speedup entry", s)
		}
	}
	if f.Detection == nil {
		t.Fatal("File.Detection missing: detection scenario ran but no latency distribution")
	}
	if f.Detection.Scenario != detectionName || f.Detection.Runs <= 0 {
		t.Fatalf("detection stats incomplete: %+v", f.Detection)
	}
	if f.Detection.Flagged <= 0 || f.Detection.LatencyMeanSlots <= 0 {
		t.Errorf("Wc*/8 cheater never flagged in %d runs: %+v", f.Detection.Runs, f.Detection)
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
