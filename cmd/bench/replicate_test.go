package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchReplicateWritesJSON smoke-runs the -replicate mode on the
// quick profile and checks the acceptance shape of BENCH_replicate.json:
// all four worker counts measured, and the adaptive schedule never
// spending more replications than the fixed worst case.
func TestBenchReplicateWritesJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_replicate.json")
	if err := run(context.Background(), []string{"-replicate", "-quick", "-benchtime", "1x", "-out", out}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f ReplicateFile
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if f.Profile != "quick" || f.GoVersion == "" || f.Generated == "" || f.GOMAXPROCS < 1 {
		t.Fatalf("metadata incomplete: %+v", f)
	}

	wantWorkers := []int{1, 2, 4, 8}
	if len(f.WorkerScaling) != len(wantWorkers) {
		t.Fatalf("got %d worker_scaling entries, want %d", len(f.WorkerScaling), len(wantWorkers))
	}
	for i, sr := range f.WorkerScaling {
		if sr.Workers != wantWorkers[i] {
			t.Errorf("worker_scaling[%d]: workers %d, want %d", i, sr.Workers, wantWorkers[i])
		}
		if sr.Seconds <= 0 || sr.Speedup <= 0 {
			t.Errorf("workers=%d: non-positive measurement (%gs, %gx)", sr.Workers, sr.Seconds, sr.Speedup)
		}
	}

	if len(f.Adaptive.Points) != 3 {
		t.Fatalf("got %d adaptive points, want 3", len(f.Adaptive.Points))
	}
	for _, p := range f.Adaptive.Points {
		if p.AdaptiveReps < f.Adaptive.MinReps || p.AdaptiveReps > f.Adaptive.MaxReps {
			t.Errorf("w=%d: adaptive reps %d outside [%d, %d]",
				p.W, p.AdaptiveReps, f.Adaptive.MinReps, f.Adaptive.MaxReps)
		}
		if p.FixedReps != f.Adaptive.MaxReps {
			t.Errorf("w=%d: fixed reps %d, want %d", p.W, p.FixedReps, f.Adaptive.MaxReps)
		}
	}
	if f.Adaptive.RepsSaved != f.Adaptive.FixedTotal-f.Adaptive.AdaptiveTotal || f.Adaptive.RepsSaved < 0 {
		t.Errorf("inconsistent reps_saved %d (fixed %d, adaptive %d)",
			f.Adaptive.RepsSaved, f.Adaptive.FixedTotal, f.Adaptive.AdaptiveTotal)
	}
}
