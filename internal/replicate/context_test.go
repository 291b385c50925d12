package replicate

import (
	"context"
	"errors"
	"strings"
	"testing"

	"selfishmac/internal/rng"
)

// TestCancelPrefixBitIdentical is the cancellation-determinism contract:
// cancelling an adaptive run after round k returns exactly the moments an
// uncancelled run had after its k-th round — at every worker count.
func TestCancelPrefixBitIdentical(t *testing.T) {
	base := Plan{BaseSeed: 7, Stream: "t.cancel", Metrics: 2, Target: 0, BatchSize: 4,
		Schedule: Schedule{MinReps: 3, MaxReps: 60, RelTolerance: 1e-9}}

	// Reference: run to exhaustion, snapshotting the fold after each round.
	var perRound []RoundStatus
	ref := base
	ref.Workers = 1
	ref.OnRound = func(st RoundStatus) { perRound = append(perRound, st) }
	full, err := runFunc(ref, twoMetricFunc(6))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if full.Converged || full.Rounds < 3 {
		t.Fatalf("reference run too short for the test: rounds=%d converged=%v", full.Rounds, full.Converged)
	}

	for _, workers := range []int{1, 4} {
		for _, stopAfter := range []int{1, 2, full.Rounds - 1} {
			ctx, cancel := context.WithCancel(context.Background())
			p := base
			p.Workers = workers
			p.OnRound = func(st RoundStatus) {
				if st.Round == stopAfter {
					cancel()
				}
			}
			res, err := Run(ctx, p, func() (Replicator, error) { return twoMetricFunc(6), nil })
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d stopAfter=%d: err = %v, want context.Canceled", workers, stopAfter, err)
			}
			if res == nil || !res.Cancelled {
				t.Fatalf("workers=%d stopAfter=%d: expected a Cancelled prefix result, got %+v", workers, stopAfter, res)
			}
			if res.Rounds != stopAfter {
				t.Fatalf("workers=%d stopAfter=%d: folded %d rounds", workers, stopAfter, res.Rounds)
			}
			want := perRound[stopAfter-1]
			if res.Reps != want.Reps {
				t.Fatalf("workers=%d stopAfter=%d: reps %d, want %d", workers, stopAfter, res.Reps, want.Reps)
			}
			for m := range res.Moments {
				if got := res.Moments[m].Snapshot(); got != want.Summaries[m] {
					t.Fatalf("workers=%d stopAfter=%d metric %d: prefix diverged: %+v vs %+v",
						workers, stopAfter, m, got, want.Summaries[m])
				}
			}
		}
	}
}

// TestCancelBeforeStart: a context that is already dead yields an empty
// Cancelled result without ever building a worker.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	built := false
	res, err := Run(ctx, Plan{BaseSeed: 1, Stream: "t.dead", Metrics: 1, Schedule: Schedule{MaxReps: 4, Workers: 1}}, func() (Replicator, error) {
		built = true
		return twoMetricFunc(1), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if built {
		t.Fatal("factory ran under a dead context")
	}
	if res == nil || !res.Cancelled || res.Reps != 0 || res.Rounds != 0 {
		t.Fatalf("expected an empty Cancelled result, got %+v", res)
	}
}

// TestFailingReplicationAttemptedOnce: a failing replication is not
// retried on another seed; the round completes with every replication
// attempted once and the lowest-index error surfaces.
func TestFailingReplicationAttemptedOnce(t *testing.T) {
	p := Plan{BaseSeed: 1, Stream: "t.once", Metrics: 1, Schedule: Schedule{MaxReps: 4, Workers: 1}}
	attempts := map[uint64]int{}
	_, err := runFunc(p, func(seed uint64, out []float64) error {
		attempts[seed]++
		if seed == rng.DeriveSeed(1, "t.once", 1) || seed == rng.DeriveSeed(1, "t.once", 3) {
			return errors.New("hard failure")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "replication 1:") {
		t.Fatalf("err = %v, want the error of replication 1", err)
	}
	for i := 0; i < p.MaxReps; i++ {
		if n := attempts[rng.DeriveSeed(1, "t.once", i)]; n != 1 {
			t.Fatalf("replication %d attempted %d times, want once", i, n)
		}
	}
	if len(attempts) != p.MaxReps {
		t.Fatalf("%d distinct seeds ran, want %d (no retry seeds)", len(attempts), p.MaxReps)
	}
}

// TestOnRoundStreamsCISoFar: the per-round callback reports cumulative
// reps and a CI that matches the final fold on the last round.
func TestOnRoundStreamsCISoFar(t *testing.T) {
	var got []RoundStatus
	p := Plan{BaseSeed: 5, Stream: "t.progress", Metrics: 2, Target: 0, BatchSize: 3,
		OnRound:  func(st RoundStatus) { got = append(got, st) },
		Schedule: Schedule{MinReps: 2, MaxReps: 40, RelTolerance: 0.02, Workers: 2}}
	res, err := runFunc(p, twoMetricFunc(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != res.Rounds {
		t.Fatalf("%d progress callbacks for %d rounds", len(got), res.Rounds)
	}
	prev := 0
	for i, st := range got {
		if st.Round != i+1 || st.Reps <= prev || len(st.Summaries) != 2 {
			t.Fatalf("round %d: malformed status %+v", i, st)
		}
		prev = st.Reps
	}
	last := got[len(got)-1]
	if last.Reps != res.Reps || last.Summaries[0] != res.Summary(0) {
		t.Fatalf("final status %+v does not match result %+v", last, res.Summary(0))
	}
}
