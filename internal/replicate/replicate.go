// Package replicate is the deterministic parallel replication controller
// behind the simulation-backed experiments: it runs independent
// replications of a simulator configuration on per-index derived seeds,
// merges per-replica moments in index order, and — when a tolerance is
// configured — adaptively stops once the 95% confidence half-width of a
// target metric is small enough.
//
// Three properties make it safe to drop into the experiment harness:
//
//   - Bit-identical at any worker count. Replication i always runs on
//     seed rng.DeriveSeed(BaseSeed, Stream, i) and writes only its own
//     metric slots; moments are folded serially in index order after each
//     round. Workers change wall-clock only (the parallel.ForEach contract).
//
//   - Deterministic adaptive stopping. The schedule is defined in rounds
//     (batch → merge → decide): the first round runs MinReps
//     replications, each later round BatchSize more, and the stopping
//     test runs only at round boundaries on the index-ordered fold. The
//     stopping point is therefore a pure function of the plan, never of
//     scheduling races.
//
//   - Engine reuse. Each worker owns one Replicator, built once by the
//     factory and reset per replication, so reusable engines
//     (macsim.Engine, multihop.Simulator) amortize their setup across
//     the whole batch at ~0 allocations per replication.
//
// Cancellation keeps those properties: it is decided only at round
// boundaries, so a cancelled run returns the bit-identical prefix of the
// uncancelled one. A replication error is not retried: replicators fail
// only on configuration checks, which no other seed would pass.
package replicate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"selfishmac/internal/parallel"
	"selfishmac/internal/rng"
	"selfishmac/internal/stats"
)

// Replicator runs one replication on the given seed and writes one value
// per metric into out (len(out) == Plan.Metrics). A replicator is
// typically a closure over a reusable engine that it resets in place, so
// one must not be shared between goroutines: the controller asks the
// factory for one per worker. A factory that returns the same function
// to every worker shares it, so that function must be safe for
// concurrent use when Workers > 1.
type Replicator func(seed uint64, out []float64) error

// Schedule is how many replications one measurement runs and on how many
// goroutines. Plan, experiments.Settings and multihop.QuasiOptConfig
// embed it, so the schedule is declared and validated once.
type Schedule struct {
	// MinReps and MaxReps bound the replication count. With no tolerance
	// configured the schedule is fixed-R: exactly MaxReps replications
	// run. Adaptive schedules never decide on fewer than max(MinReps, 2)
	// samples.
	MinReps int
	MaxReps int
	// RelTolerance, when positive, stops the batch once the 95% CI
	// half-width of the target metric is <= RelTolerance * |mean|. It
	// must be finite and non-negative.
	RelTolerance float64
	// Workers bounds the goroutines running replications (0 or negative
	// means GOMAXPROCS; 1 forces the serial path). Results are
	// bit-identical at every worker count.
	Workers int
}

// Validate rejects a schedule no run can follow: MaxReps < 1, a negative
// MinReps, or a NaN, negative or infinite RelTolerance. The error wraps
// ErrInvalidPlan.
func (s Schedule) Validate() error {
	return invalid(s.problems())
}

// problems lists the schedule's validation failures.
func (s Schedule) problems() []error {
	var errs []error
	if s.MaxReps < 1 {
		errs = append(errs, fmt.Errorf("MaxReps = %d must be >= 1", s.MaxReps))
	}
	if s.MinReps < 0 {
		errs = append(errs, fmt.Errorf("MinReps = %d must be >= 0", s.MinReps))
	}
	// NaN passes every ordered comparison, and +Inf would "converge" on
	// any CI, so both are rejected outright.
	if !(s.RelTolerance >= 0) || math.IsInf(s.RelTolerance, 1) {
		errs = append(errs, fmt.Errorf("RelTolerance = %g must be finite and non-negative", s.RelTolerance))
	}
	return errs
}

// invalid wraps validation failures in ErrInvalidPlan (nil for none).
func invalid(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrInvalidPlan, errors.Join(errs...))
}

// Plan describes one replication batch: a Schedule on one seed stream.
type Plan struct {
	// BaseSeed and Stream scope the per-replication seed stream:
	// replication i runs on rng.DeriveSeed(BaseSeed, Stream, i).
	BaseSeed uint64
	Stream   string
	// Metrics is the number of values each replication produces.
	Metrics int
	// Target indexes the metric whose confidence interval drives adaptive
	// stopping (ignored for fixed-R plans).
	Target int
	Schedule
	// BatchSize is the number of replications added per adaptive round
	// after the first (which runs MinReps). 0 defaults to MinReps.
	BatchSize int
	// OnRound, when non-nil, is called after each round's fold with a
	// progress snapshot. Calls happen serially on the controller
	// goroutine, in round order, after errors are checked and before the
	// stopping decision — so a job service can stream CI-so-far lines
	// without perturbing the schedule. The callback must not retain the
	// Summaries slice past the call.
	OnRound func(RoundStatus)
}

// RoundStatus is the per-round progress snapshot passed to Plan.OnRound.
type RoundStatus struct {
	// Round is the 1-based round just folded; Reps the cumulative
	// replications completed.
	Round int
	Reps  int
	// Summaries snapshots every metric's moments after the fold, in
	// metric order (mean, CI95, min/max, n).
	Summaries []stats.Summary
}

// ErrInvalidPlan is wrapped by every error a Plan fails validation with,
// so callers can tell a rejected plan from a failed run with errors.Is.
var ErrInvalidPlan = errors.New("replicate: invalid plan")

// adaptive reports whether a stopping tolerance is configured.
func (p Plan) adaptive() bool { return p.RelTolerance > 0 }

// normalized validates the plan and fills defaults.
func (p Plan) normalized() (Plan, error) {
	var errs []error
	if p.Metrics < 1 {
		errs = append(errs, fmt.Errorf("Metrics = %d must be >= 1", p.Metrics))
	}
	if p.Target < 0 || p.Target >= p.Metrics {
		errs = append(errs, fmt.Errorf("Target = %d outside [0, %d)", p.Target, p.Metrics))
	}
	if p.BatchSize < 0 {
		errs = append(errs, fmt.Errorf("BatchSize = %d must be >= 0", p.BatchSize))
	}
	if err := invalid(append(errs, p.Schedule.problems()...)); err != nil {
		return p, err
	}
	if p.adaptive() {
		if p.MinReps < 2 {
			p.MinReps = 2 // a CI needs at least two samples
		}
	} else {
		p.MinReps = p.MaxReps // fixed-R: one round of exactly MaxReps
	}
	if p.MinReps > p.MaxReps {
		p.MinReps = p.MaxReps
	}
	if p.BatchSize < 1 {
		p.BatchSize = p.MinReps
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	if p.Workers > p.MaxReps {
		p.Workers = p.MaxReps
	}
	return p, nil
}

// Result is the merged outcome of a replication batch.
type Result struct {
	// Reps is the number of replications actually run; Rounds the number
	// of batch→merge→decide rounds.
	Reps   int
	Rounds int
	// Converged reports whether an adaptive plan met its tolerance before
	// exhausting MaxReps (always false for fixed-R plans).
	Converged bool
	// Cancelled reports that the context was cancelled before the plan
	// finished. The Moments then hold exactly the rounds folded before
	// cancellation — the bit-identical prefix of the uncancelled run —
	// and Reps counts only those folded replications.
	Cancelled bool
	// Moments holds the index-ordered fold of every metric.
	Moments []stats.Welford
}

// Mean returns the merged mean of metric m.
func (r *Result) Mean(m int) float64 { return r.Moments[m].Mean() }

// CI95 returns the 95% confidence half-width of metric m's mean.
func (r *Result) CI95(m int) float64 { return r.Moments[m].CI95() }

// Summary snapshots metric m.
func (r *Result) Summary(m int) stats.Summary { return r.Moments[m].Snapshot() }

// Run executes the plan. factory builds one Replicator per worker (each
// built exactly once, before any replication runs, and kept for the whole
// batch — this is where reusable engines pay off); a stateless function
// is passed as a factory returning f itself. The returned Result is
// bit-identical at every worker count. Each replication is attempted
// once: a failed round returns the lowest-index replication error.
//
// Cancellation is round-synchronous, which is what keeps it
// deterministic: the context is checked at every round boundary (and
// between replications inside a round, so workers stop promptly), but
// only fully completed rounds are ever folded. When ctx is cancelled
// mid-plan, Run returns a non-nil Result holding the bit-identical
// prefix — exactly the moments an uncancelled run would have had after
// the same rounds — with Cancelled set, alongside ctx.Err(). Callers
// that treat the prefix as a partial answer check res.Cancelled; callers
// that treat cancellation as failure just propagate the error.
func Run(ctx context.Context, p Plan, factory func() (Replicator, error)) (*Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return &Result{Cancelled: true, Moments: make([]stats.Welford, p.Metrics)}, err
	}
	workers := make([]Replicator, p.Workers)
	for i := range workers {
		r, err := factory()
		if err != nil {
			return nil, fmt.Errorf("replicate: worker %d: %w", i, err)
		}
		if r == nil {
			return nil, fmt.Errorf("replicate: worker %d: factory returned nil", i)
		}
		workers[i] = r
	}

	values := make([]float64, p.MaxReps*p.Metrics)
	errs := make([]error, p.MaxReps)
	res := &Result{Moments: make([]stats.Welford, p.Metrics)}

	done, target := 0, p.MinReps
	for {
		runRound(ctx, p, workers, values, errs, done, target)
		if err := ctx.Err(); err != nil {
			// The round that was in flight is discarded wholesale: folding
			// a partial round would make the moments depend on which
			// replications happened to finish before the cancel.
			res.Reps = done
			res.Cancelled = true
			return res, err
		}
		// Errors surface in index order, like parallel.ForEach.
		for i := done; i < target; i++ {
			if errs[i] != nil {
				return nil, fmt.Errorf("replicate: replication %d: %w", i, errs[i])
			}
		}
		// Fold the round as one block per metric, merged in index order:
		// the cumulative moments equal a single index-ordered stream.
		for m := 0; m < p.Metrics; m++ {
			var blk stats.Welford
			for i := done; i < target; i++ {
				blk.Add(values[i*p.Metrics+m])
			}
			res.Moments[m].Merge(blk)
		}
		done = target
		res.Rounds++
		if p.OnRound != nil {
			st := RoundStatus{Round: res.Rounds, Reps: done, Summaries: make([]stats.Summary, p.Metrics)}
			for m := range res.Moments {
				st.Summaries[m] = res.Moments[m].Snapshot()
			}
			p.OnRound(st)
		}
		if p.adaptive() && done >= p.MinReps && done >= 2 {
			w := &res.Moments[p.Target]
			ci := w.CI95()
			if ci <= p.RelTolerance*math.Abs(w.Mean()) {
				res.Converged = true
				break
			}
		}
		if done >= p.MaxReps {
			break
		}
		target = done + p.BatchSize
		if target > p.MaxReps {
			target = p.MaxReps
		}
	}
	res.Reps = done
	return res, nil
}

// runRound executes replications [lo, hi) across the worker Replicators,
// one per pool worker. Each replication writes only its own metric slots
// and error slot, so results are independent of which worker claims
// which index. Workers stop claiming once ctx is cancelled; the caller
// then discards the partial round, so the check affects wall-clock only,
// never the folded moments.
func runRound(ctx context.Context, p Plan, workers []Replicator, values []float64, errs []error, lo, hi int) {
	// Replication errors land in errs, never in the pool's result; the
	// only error the pool can report is the cancellation the caller
	// checks itself.
	_ = parallel.ForEach(ctx, hi-lo, len(workers), func(w, k int) error {
		i := lo + k
		out := values[i*p.Metrics : (i+1)*p.Metrics : (i+1)*p.Metrics]
		errs[i] = workers[w](rng.DeriveSeed(p.BaseSeed, p.Stream, i), out)
		return nil
	})
}
