package replicate

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"selfishmac/internal/rng"
)

// noisyMetric is a deterministic pseudo-measurement: mean 10 plus
// seed-derived noise, so replications are reproducible but distinct.
func noisyMetric(seed uint64, spread float64) float64 {
	src := rng.New(seed)
	return 10 + spread*(src.Float64()-0.5)
}

// runFunc runs the plan with f shared by every worker.
func runFunc(p Plan, f Replicator) (*Result, error) {
	return Run(context.Background(), p, func() (Replicator, error) { return f, nil })
}

func twoMetricFunc(spread float64) Replicator {
	return func(seed uint64, out []float64) error {
		out[0] = noisyMetric(seed, spread)
		out[1] = -2 * noisyMetric(seed^0xabcd, spread)
		return nil
	}
}

// TestWorkerCountBitIdentity is the controller's core contract: the full
// Result — reps, rounds, convergence flag and every merged moment — must
// be bit-identical at workers 1, 2, 4 and 8, for fixed and adaptive plans.
func TestWorkerCountBitIdentity(t *testing.T) {
	plans := []Plan{
		{BaseSeed: 3, Stream: "t.fixed", Metrics: 2, Schedule: Schedule{MaxReps: 17}},
		{BaseSeed: 3, Stream: "t.adapt", Metrics: 2, Target: 0, BatchSize: 4,
			Schedule: Schedule{MinReps: 3, MaxReps: 40, RelTolerance: 0.01}},
		{BaseSeed: 9, Stream: "t.target1", Metrics: 2, Target: 1, BatchSize: 5,
			Schedule: Schedule{MinReps: 2, MaxReps: 64, RelTolerance: 0.035}}, // converges after 10 rounds
	}
	for pi, base := range plans {
		var want *Result
		for _, workers := range []int{1, 2, 4, 8} {
			p := base
			p.Workers = workers
			got, err := runFunc(p, twoMetricFunc(4))
			if err != nil {
				t.Fatalf("plan %d workers %d: %v", pi, workers, err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Reps != want.Reps || got.Rounds != want.Rounds || got.Converged != want.Converged {
				t.Fatalf("plan %d workers %d: schedule diverged: reps %d/%d rounds %d/%d converged %v/%v",
					pi, workers, got.Reps, want.Reps, got.Rounds, want.Rounds, got.Converged, want.Converged)
			}
			for m := range got.Moments {
				if got.Moments[m] != want.Moments[m] {
					t.Fatalf("plan %d workers %d metric %d: moments diverged: %+v vs %+v",
						pi, workers, m, got.Summary(m), want.Summary(m))
				}
			}
		}
	}
}

// A fixed-R plan (no RelTolerance) runs exactly MaxReps replications in
// one round and never reports convergence, whatever MinReps says.
func TestFixedPlanRunsExactly(t *testing.T) {
	for _, p := range []Plan{
		{BaseSeed: 1, Stream: "t.count", Metrics: 1, Schedule: Schedule{MaxReps: 13, Workers: 4}},
		{BaseSeed: 1, Stream: "t.count", Metrics: 1, Schedule: Schedule{MinReps: 2, MaxReps: 5}},
	} {
		var calls atomic.Int64
		res, err := runFunc(p, func(seed uint64, out []float64) error {
			calls.Add(1)
			out[0] = noisyMetric(seed, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := p.MaxReps
		if res.Reps != want || int(calls.Load()) != want || res.Rounds != 1 || res.Converged {
			t.Fatalf("MinReps %d: fixed plan ran %d reps (%d calls, %d rounds, converged=%v), want exactly %d in one round",
				p.MinReps, res.Reps, calls.Load(), res.Rounds, res.Converged, want)
		}
		if res.Moments[0].N() != want {
			t.Fatalf("MinReps %d: moments folded %d samples, want %d", p.MinReps, res.Moments[0].N(), want)
		}
	}
}

// Adaptive stopping: low-variance measurements stop at the first decision
// point; high-variance ones run to MaxReps without convergence; and the
// tolerance is actually honored at the stopping point.
func TestAdaptiveStopping(t *testing.T) {
	base := Plan{BaseSeed: 5, Stream: "t.stop", Metrics: 1, Target: 0, BatchSize: 4,
		Schedule: Schedule{MinReps: 3, MaxReps: 30, RelTolerance: 0.02, Workers: 2}}

	quiet, err := runFunc(base, func(seed uint64, out []float64) error {
		out[0] = noisyMetric(seed, 0.01) // CI≈1e-3 ≪ 2% of 10
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !quiet.Converged || quiet.Reps != base.MinReps {
		t.Fatalf("quiet metric: reps %d converged %v, want stop at MinReps=%d",
			quiet.Reps, quiet.Converged, base.MinReps)
	}
	if ci := quiet.CI95(0); ci > base.RelTolerance*quiet.Mean(0) {
		t.Fatalf("reported convergence with CI %g above tolerance", ci)
	}

	loud, err := runFunc(base, func(seed uint64, out []float64) error {
		out[0] = noisyMetric(seed, 50) // CI stays way above 2% of 10
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if loud.Converged || loud.Reps != base.MaxReps {
		t.Fatalf("loud metric: reps %d converged %v, want MaxReps=%d without convergence",
			loud.Reps, loud.Converged, base.MaxReps)
	}

	// Intermediate variance must stop strictly between the bounds at a
	// round boundary (MinReps + k*BatchSize).
	mid, err := runFunc(base, func(seed uint64, out []float64) error {
		out[0] = noisyMetric(seed, 1.2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mid.Converged || mid.Reps <= base.MinReps || mid.Reps >= base.MaxReps {
		t.Fatalf("mid metric: reps %d converged %v, want a stop strictly inside (%d, %d)",
			mid.Reps, mid.Converged, base.MinReps, base.MaxReps)
	}
	if off := (mid.Reps - base.MinReps) % base.BatchSize; off != 0 {
		t.Fatalf("stop at %d reps is not a round boundary (MinReps=%d, BatchSize=%d)",
			mid.Reps, base.MinReps, base.BatchSize)
	}
}

// The lowest-index error wins, deterministically, at any worker count.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := runFunc(Plan{BaseSeed: 1, Stream: "t.err", Metrics: 1, Schedule: Schedule{MaxReps: 10, Workers: workers}}, func(seed uint64, out []float64) error {
			// Replications 3 and 7 fail (identified via their seeds).
			if seed == rng.DeriveSeed(1, "t.err", 3) || seed == rng.DeriveSeed(1, "t.err", 7) {
				return boom
			}
			out[0] = 1
			return nil
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers %d: error not propagated: %v", workers, err)
		}
		if !strings.Contains(err.Error(), "replication 3") {
			t.Fatalf("workers %d: expected lowest-index error (replication 3), got %v", workers, err)
		}
	}
}

// Each worker must get its own Replicator, built exactly once.
func TestFactoryPerWorker(t *testing.T) {
	var built atomic.Int64
	p := Plan{BaseSeed: 1, Stream: "t.factory", Metrics: 1, Schedule: Schedule{MaxReps: 20, Workers: 4}}
	_, err := Run(context.Background(), p, func() (Replicator, error) {
		built.Add(1)
		return func(seed uint64, out []float64) error {
			out[0] = noisyMetric(seed, 1)
			return nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if built.Load() != 4 {
		t.Fatalf("factory built %d replicators, want 4 (one per worker)", built.Load())
	}
	factoryErr := errors.New("no engine")
	if _, err := Run(context.Background(), p, func() (Replicator, error) { return nil, factoryErr }); !errors.Is(err, factoryErr) {
		t.Fatalf("factory error not propagated: %v", err)
	}
}

// Plan validation rejects unusable shapes, each under ErrInvalidPlan
// and before any replication runs.
func TestPlanValidation(t *testing.T) {
	tests := []struct {
		name string
		plan Plan
	}{
		{"no metrics", Plan{Metrics: 0, Schedule: Schedule{MaxReps: 3}}},
		{"target out of range", Plan{Metrics: 2, Target: 2, Schedule: Schedule{MaxReps: 3}}},
		{"no reps", Plan{Metrics: 1, Schedule: Schedule{MaxReps: 0}}},
		{"negative MinReps", Plan{Metrics: 1, Schedule: Schedule{MinReps: -1, MaxReps: 3}}},
		{"negative RelTolerance", Plan{Metrics: 1, Schedule: Schedule{MaxReps: 3, RelTolerance: -0.1}}},
		{"NaN RelTolerance", Plan{Metrics: 1, Schedule: Schedule{MaxReps: 50, RelTolerance: math.NaN()}}},
		{"+Inf RelTolerance", Plan{Metrics: 1, Schedule: Schedule{MaxReps: 50, RelTolerance: math.Inf(1)}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ran := false
			_, err := runFunc(tc.plan, func(uint64, []float64) error { ran = true; return nil })
			if !errors.Is(err, ErrInvalidPlan) {
				t.Fatalf("err = %v, want ErrInvalidPlan", err)
			}
			if ran {
				t.Fatal("a replication ran on an invalid plan")
			}
		})
	}
	// MaxReps=1 with a tolerance: no CI is ever computable; the plan must
	// still terminate after its single replication.
	res, err := runFunc(Plan{Metrics: 1, Stream: "t.one", Schedule: Schedule{MaxReps: 1, RelTolerance: 0.1}},
		func(seed uint64, out []float64) error { out[0] = 1; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != 1 || res.Converged {
		t.Fatalf("degenerate adaptive plan: reps %d converged %v, want 1 rep, no convergence", res.Reps, res.Converged)
	}
}
