package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"selfishmac/internal/experiments"
)

// FuzzSubmit posts arbitrary bodies to /api/v1/jobs of a server that is never
// started, so no job runs, and asserts the submit contract: the status
// is 202, 400 or 429 and never a 5xx; an accepted job's deadline is
// positive and at most MaxJobTimeout; and each kind's params either fail
// decodeParams/resolve or come out of them inside the work bounds.
func FuzzSubmit(f *testing.F) {
	// The benchmark's daemon templates, one per job body it sends.
	for _, body := range []string{
		`{"kind":"replicate","params":{"base_seed":1,"workers":1}}`,
		`{"kind":"replicate","params":{"nodes":100,"min_reps":4,"max_reps":4,"batch_size":4,"base_seed":1,"workers":1}}`,
		`{"kind":"singlehop","params":{"nodes":50,"duration_us":200e6,"base_seed":1,"workers":1}}`,
		`{"kind":"detect","params":{"duration_us":600e6,"seed":1}}`,
		`{"kind":"experiment","params":{"id":"T2","profile":"quick","seed":1,"workers":1}}`,
		`{"kind":"replicate","timeout_sec":1e300,"priority":9}`,
		`{"kind":"replicate","params":{"nodes":10000,"width":1e160,"height":1e160,"range":1e200}}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Config{QueueCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted:
			jobs := s.Jobs()
			if len(jobs) != 1 {
				t.Fatalf("202 with %d registered jobs", len(jobs))
			}
			if d := jobs[0].Timeout; d <= 0 || d > s.Config().MaxJobTimeout {
				t.Fatalf("accepted job has timeout %v, want in (0, %v]", d, s.Config().MaxJobTimeout)
			}
			checkParamBounds(t, jobs[0].Kind, jobs[0].Params)
		case http.StatusBadRequest, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// checkParamBounds runs a kind's decodeParams and resolve on params and,
// when both accept them, checks the resolved params against the work
// bounds.
func checkParamBounds(t *testing.T, kind string, raw json.RawMessage) {
	t.Helper()
	procs := runtime.GOMAXPROCS(0)
	schedule := func(p ScheduleParams) {
		if p.MaxReps < 1 || p.MaxReps > maxReps {
			t.Fatalf("%s: max_reps %d outside [1, %d]", kind, p.MaxReps, maxReps)
		}
		if p.Workers > procs {
			t.Fatalf("%s: workers %d above GOMAXPROCS %d", kind, p.Workers, procs)
		}
	}
	run := func(nodes, maxNodes int, durationUs float64) {
		if nodes < 1 || nodes > maxNodes {
			t.Fatalf("%s: %d nodes outside [1, %d]", kind, nodes, maxNodes)
		}
		if !(durationUs > 0 && durationUs <= maxDurationUs) {
			t.Fatalf("%s: duration %g us outside (0, %g]", kind, durationUs, maxDurationUs)
		}
	}
	switch kind {
	case "replicate":
		var p ReplicateParams
		if decodeParams(raw, &p) != nil || p.resolve() != nil {
			return
		}
		schedule(p.ScheduleParams)
		run(p.Nodes, maxReplicateNodes, p.DurationUs)
		n := float64(p.Nodes)
		density := min(1, math.Pi*(p.Range/p.Width)*(p.Range/p.Height))
		if entries := n * (n - 1) * density; !(entries <= maxAdjacencyEntries) {
			t.Fatalf("replicate: %g expected adjacency entries above %d", entries, maxAdjacencyEntries)
		}
	case "singlehop":
		var p SinglehopParams
		if decodeParams(raw, &p) != nil || p.resolve() != nil {
			return
		}
		schedule(p.ScheduleParams)
		run(p.Nodes, maxMacsimNodes, p.DurationUs)
	case "detect":
		var p DetectParams
		if decodeParams(raw, &p) != nil || p.resolve() != nil {
			return
		}
		run(p.Nodes, maxMacsimNodes, p.DurationUs)
		if p.Cheaters < 0 || p.Cheaters >= p.Nodes {
			t.Fatalf("detect: %d cheaters among %d nodes", p.Cheaters, p.Nodes)
		}
	case "experiment":
		// The registry fixes each experiment's size; the params only pick
		// one, its profile and its fan-out.
		var p ExperimentParams
		if decodeParams(raw, &p) != nil || p.resolve() != nil {
			return
		}
		if _, ok := experiments.ByID(p.ID); !ok {
			t.Fatalf("experiment: unknown id %q accepted", p.ID)
		}
		if p.Profile != "quick" && p.Profile != "paper" {
			t.Fatalf("experiment: profile %q outside {quick, paper}", p.Profile)
		}
		if p.Workers > procs {
			t.Fatalf("experiment: workers %d above GOMAXPROCS %d", p.Workers, procs)
		}
	}
}
