package service

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"selfishmac/internal/multihop"
	"selfishmac/internal/topology"
)

// TestJobRerunBitIdentical pins that a rerun of the same job is
// identical, for both replicated kinds: every job builds its engines
// fresh and every replication Resets them, so no state carries over from
// an earlier job.
func TestJobRerunBitIdentical(t *testing.T) {
	discard := func(any) {}
	run := func(kind string, params string) any {
		t.Helper()
		var fn RunnerFunc
		switch kind {
		case "replicate":
			fn = runReplicateJob
		case "singlehop":
			fn = runSinglehopJob
		}
		out, err := fn(context.Background(), json.RawMessage(params), discard)
		if err != nil {
			t.Fatalf("%s job: %v", kind, err)
		}
		return out
	}
	cases := []struct {
		kind   string
		params string
	}{
		{"replicate", `{"nodes":30,"duration_us":100000,"max_reps":4,"workers":1}`},
		{"singlehop", `{"nodes":10,"cw":76,"duration_us":200000,"max_reps":4,"workers":1}`},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			first := run(tc.kind, tc.params)
			second := run(tc.kind, tc.params)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("rerun diverged from the first run:\nfirst:  %+v\nsecond: %+v", first, second)
			}
		})
	}
}

// TestReplicateJobReplicationAllocationFree pins the replicate job's
// per-replication cost: once its engine is built, every replication —
// Reset, Run and the metric fold into out — runs on the simulator's
// 0 allocs/op path, at any stage duration.
func TestReplicateJobReplicationAllocationFree(t *testing.T) {
	topo := topology.Config{N: 25, Width: 800, Height: 800, Range: 200, Seed: 5}
	for _, durationUs := range []float64{5e4, 8e4} {
		nw, err := topology.New(topo)
		if err != nil {
			t.Fatal(err)
		}
		cfg := multihop.DefaultSimConfig(durationUs, 1)
		cfg.CW = uniformCW(topo.N, 64)
		sim, err := multihop.NewSimulator(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := svcReplicator{sim}
		out := make([]float64, len(replicateMetricNames))
		seed := uint64(0)
		allocs := testing.AllocsPerRun(10, func() {
			seed++
			if err := r.Replicate(seed, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("duration %g: replication allocated %.1f objects per run, want 0", durationUs, allocs)
		}
	}
}

// TestReplicatedJobBounds pins the per-job work bounds: an oversize
// population, topology density or replication budget, or an unknown
// experiment ID or profile, is rejected, both through resolve and as a
// failed job, while an oversize duration and worker count are clamped.
func TestReplicatedJobBounds(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	type resolved struct {
		durationUs float64
		workers    int
	}
	resolve := func(kind, raw string) (resolved, error) {
		t.Helper()
		var (
			r   resolved
			err error
		)
		switch kind {
		case "replicate":
			var p ReplicateParams
			if err := decodeParams(json.RawMessage(raw), &p); err != nil {
				t.Fatal(err)
			}
			err = p.resolve()
			r = resolved{p.DurationUs, p.Workers}
		case "singlehop":
			var p SinglehopParams
			if err := decodeParams(json.RawMessage(raw), &p); err != nil {
				t.Fatal(err)
			}
			err = p.resolve()
			r = resolved{p.DurationUs, p.Workers}
		case "experiment":
			var p ExperimentParams
			if err := decodeParams(json.RawMessage(raw), &p); err != nil {
				t.Fatal(err)
			}
			err = p.resolve()
			r = resolved{0, p.Workers}
		}
		return r, err
	}
	tests := []struct {
		name, kind, params string
		wantErr            string
		want               resolved
	}{
		{"replicate nodes", "replicate", `{"nodes":10001}`, "replicate population 10001 exceeds 10000", resolved{}},
		{"replicate duration", "replicate", `{"duration_us":1e12}`, "", resolved{600e6, 0}},
		{"replicate workers", "replicate", `{"workers":1000}`, "", resolved{2e6, procs}},
		{"replicate max_reps", "replicate", `{"max_reps":1000001}`, "max_reps 1000001 exceeds 1000000", resolved{}},
		{"replicate density", "replicate", `{"nodes":10000,"range":2000}`, "adjacency entries, exceeds 2000000", resolved{}},
		{"replicate density overflow", "replicate", `{"nodes":10000,"width":1e160,"height":1e160,"range":1e200}`, "adjacency entries, exceeds 2000000", resolved{}},
		{"singlehop nodes", "singlehop", `{"nodes":201}`, "singlehop population 201 exceeds 200", resolved{}},
		{"singlehop duration", "singlehop", `{"duration_us":1e12}`, "", resolved{600e6, 0}},
		{"singlehop workers", "singlehop", `{"workers":1000}`, "", resolved{1e6, procs}},
		{"singlehop max_reps", "singlehop", `{"max_reps":1000001}`, "max_reps 1000001 exceeds 1000000", resolved{}},
		{"experiment id", "experiment", `{"id":"ZZ"}`, `unknown experiment "ZZ"`, resolved{}},
		{"experiment profile", "experiment", `{"id":"T2","profile":"huge"}`, `unknown profile "huge" (want quick or paper)`, resolved{}},
		{"experiment workers", "experiment", `{"id":"T2","workers":1000}`, "", resolved{0, procs}},
	}
	s := newTestServer(t, nil)
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := resolve(tc.kind, tc.params)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want {
					t.Fatalf("resolved %+v, want %+v", got, tc.want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("resolve error %v, want %q", err, tc.wantErr)
			}
			j, err := s.Submit(SubmitRequest{Kind: tc.kind, Params: json.RawMessage(tc.params)})
			if err != nil {
				t.Fatal(err)
			}
			if got := waitTerminal(t, j); got != StateFailed {
				t.Fatalf("state %s, want failed", got)
			}
			if v := j.view(false); !strings.Contains(v.Error, tc.wantErr) {
				t.Errorf("job error %q, want %q", v.Error, tc.wantErr)
			}
		})
	}
}

// TestSinglehopJobEndToEnd drives the built-in "singlehop" kind in both
// access modes: the job must finish Done with per-round progress lines
// naming both metrics and a filled-in result; an unknown mode or params
// field fails the job.
func TestSinglehopJobEndToEnd(t *testing.T) {
	s := newTestServer(t, nil)
	for _, mode := range []string{"basic", "rtscts"} {
		t.Run(mode, func(t *testing.T) {
			params := `{"nodes":10,"cw":76,"mode":"` + mode + `","duration_us":200000,` +
				`"min_reps":3,"max_reps":3,"batch_size":3,"rel_ci":-1,"workers":2}`
			j, err := s.Submit(SubmitRequest{Kind: "singlehop", Params: json.RawMessage(params)})
			if err != nil {
				t.Fatal(err)
			}
			if got := waitTerminal(t, j); got != StateDone {
				t.Fatalf("singlehop job = %s (err %q)", got, j.view(false).Error)
			}
			result, _, _ := j.resultNow()
			view, ok := result.(*ReplicateResult)
			if !ok {
				t.Fatalf("result type %T", result)
			}
			if view.Reps != 3 || view.Rounds < 1 || view.Cancelled {
				t.Errorf("result = %+v, want 3 uncancelled reps", view)
			}
			if len(view.Metrics) != len(singlehopMetricNames) {
				t.Fatalf("metrics = %+v", view.Metrics)
			}
			for m, name := range singlehopMetricNames {
				got := view.Metrics[m]
				if got.Name != name || got.N != 3 || got.Mean <= 0 {
					t.Errorf("metric %d = %+v, want %s over 3 reps with a positive mean", m, got, name)
				}
			}
			lines, _, total := j.progressTail(0)
			if total < 1 {
				t.Fatal("no progress lines from singlehop job")
			}
			for _, line := range lines {
				var pr ReplicateProgress
				if err := json.Unmarshal([]byte(line), &pr); err != nil {
					t.Fatalf("progress line %q: %v", line, err)
				}
				if len(pr.Metrics) != 2 || pr.Metrics[0].Name != "global_payoff_rate" || pr.Metrics[1].Name != "throughput" {
					t.Errorf("progress line %q does not carry global_payoff_rate and throughput", line)
				}
			}
		})
	}
	for _, tc := range []struct {
		name, params, wantErr string
	}{
		{"bad mode", `{"mode":"csma"}`, "unknown mode"},
		{"unknown field", `{"nodez":10}`, "unknown field"},
	} {
		j, err := s.Submit(SubmitRequest{Kind: "singlehop", Params: json.RawMessage(tc.params)})
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, j); got != StateFailed {
			t.Fatalf("%s: state %s, want failed", tc.name, got)
		}
		if v := j.view(false); !strings.Contains(v.Error, tc.wantErr) {
			t.Errorf("%s: error %q, want %q", tc.name, v.Error, tc.wantErr)
		}
	}
}
