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
// Cancellation (RunContext) and error retries (Plan.MaxErrRetries) keep
// those properties: cancellation is decided only at round boundaries, so
// a cancelled run returns the bit-identical prefix of the uncancelled
// one, and retry seeds are derived per (replication, attempt), so
// recovery is schedule-independent too.
package replicate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"selfishmac/internal/parallel"
	"selfishmac/internal/rng"
	"selfishmac/internal/stats"
)

// Replicator runs one replication on the given seed and writes one value
// per metric into out (len(out) == Plan.Metrics). Implementations are
// typically reusable engines: Replicate resets them in place, so a single
// Replicator must not be shared between goroutines — the controller
// builds one per worker.
type Replicator interface {
	Replicate(seed uint64, out []float64) error
}

// Func adapts a stateless function to the Replicator interface.
type Func func(seed uint64, out []float64) error

// Replicate implements Replicator.
func (f Func) Replicate(seed uint64, out []float64) error { return f(seed, out) }

// Plan describes one replication batch.
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
	// RelTolerance, when positive, stops the batch once the 95% CI
	// half-width of the target metric is <= RelTolerance * |mean|. It
	// must be finite and non-negative.
	RelTolerance float64
	// MinReps and MaxReps bound the replication count. With no tolerance
	// configured the plan is fixed-R: exactly MaxReps replications run.
	// Adaptive plans never decide on fewer than max(MinReps, 2) samples.
	MinReps int
	MaxReps int
	// BatchSize is the number of replications added per adaptive round
	// after the first (which runs MinReps). 0 defaults to MinReps.
	BatchSize int
	// Workers bounds the goroutines running replications (0 or negative
	// means GOMAXPROCS; 1 forces the serial path).
	Workers int
	// MaxErrRetries is the per-replication error budget: when a
	// replication fails, it is re-run on a derived retry seed
	// (rng.DeriveSeed(seed, "replicate.retry", attempt)) up to
	// MaxErrRetries times before the error is surfaced. Retries are
	// deterministic — the attempt-k seed of replication i is a pure
	// function of the plan — so the merged result stays bit-identical at
	// every worker count even when some replications recover. 0 keeps
	// the historical fail-fast behavior.
	MaxErrRetries int
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
	if p.MaxReps < 1 {
		errs = append(errs, fmt.Errorf("MaxReps = %d must be >= 1", p.MaxReps))
	}
	if p.MinReps < 0 || p.BatchSize < 0 || p.MaxErrRetries < 0 {
		errs = append(errs, errors.New("negative MinReps/BatchSize/MaxErrRetries"))
	}
	// NaN passes every ordered comparison, and +Inf would "converge" on
	// any CI, so both are rejected outright.
	if !(p.RelTolerance >= 0) || math.IsInf(p.RelTolerance, 1) {
		errs = append(errs, fmt.Errorf("RelTolerance = %g must be finite and non-negative", p.RelTolerance))
	}
	if len(errs) > 0 {
		return p, fmt.Errorf("%w: %w", ErrInvalidPlan, errors.Join(errs...))
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

// FixedPlan is a convenience constructor for the fixed-R (no adaptive
// stopping) plan the experiment harness uses when a tolerance is not
// configured: exactly reps replications, whatever the variance.
func FixedPlan(baseSeed uint64, stream string, metrics, reps, workers int) Plan {
	return Plan{
		BaseSeed: baseSeed,
		Stream:   stream,
		Metrics:  metrics,
		MinReps:  reps,
		MaxReps:  reps,
		Workers:  workers,
	}
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
	// Retried counts replication attempts that failed and were re-run on
	// a retry seed (see Plan.MaxErrRetries). A replication that needed k
	// extra attempts contributes k.
	Retried int
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
// batch — this is where reusable engines pay off). The returned Result is
// bit-identical at every worker count; on error, the lowest-index
// replication error is returned.
func Run(p Plan, factory func() (Replicator, error)) (*Result, error) {
	return RunContext(context.Background(), p, factory)
}

// RunContext executes the plan under a context. Cancellation is
// round-synchronous, which is what keeps it deterministic: the context is
// checked at every round boundary (and between replications inside a
// round, so workers stop promptly), but only fully completed rounds are
// ever folded. When ctx is cancelled mid-plan, RunContext returns a
// non-nil Result holding the bit-identical prefix — exactly the moments
// an uncancelled run would have had after the same rounds — with
// Cancelled set, alongside ctx.Err(). Callers that treat the prefix as a
// partial answer check res.Cancelled; callers that treat cancellation as
// failure just propagate the error.
func RunContext(ctx context.Context, p Plan, factory func() (Replicator, error)) (*Result, error) {
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
	var retried atomic.Int64

	done, target := 0, p.MinReps
	for {
		runRound(ctx, p, workers, values, errs, done, target, &retried)
		if err := ctx.Err(); err != nil {
			// The round that was in flight is discarded wholesale: folding
			// a partial round would make the moments depend on which
			// replications happened to finish before the cancel.
			res.Reps = done
			res.Cancelled = true
			res.Retried = int(retried.Load())
			return res, err
		}
		// Errors surface in index order, like parallel.ForEach.
		for i := done; i < target; i++ {
			if errs[i] != nil {
				return nil, fmt.Errorf("replicate: replication %d (after %d retries): %w",
					i, p.MaxErrRetries, errs[i])
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
	res.Retried = int(retried.Load())
	return res, nil
}

// RunFunc runs the plan over a stateless replication function. The same
// function value serves every worker, so it must be safe for concurrent
// use when Workers > 1.
func RunFunc(p Plan, f Func) (*Result, error) {
	return Run(p, func() (Replicator, error) { return f, nil })
}

// RunFuncContext is RunFunc under a context (see RunContext).
func RunFuncContext(ctx context.Context, p Plan, f Func) (*Result, error) {
	return RunContext(ctx, p, func() (Replicator, error) { return f, nil })
}

// runRound executes replications [lo, hi) across the worker Replicators,
// one per pool worker. Each replication writes only its own metric slots
// and error slot, so results are independent of which worker claims
// which index. Workers stop claiming once ctx is cancelled; the caller
// then discards the partial round, so the check affects wall-clock only,
// never the folded moments.
func runRound(ctx context.Context, p Plan, workers []Replicator, values []float64, errs []error, lo, hi int, retried *atomic.Int64) {
	// Replication errors land in errs, never in the pool's result; the
	// only error the pool can report is the cancellation the caller
	// checks itself.
	_ = parallel.ForEach(ctx, hi-lo, len(workers), func(w, k int) error {
		i := lo + k
		seed := rng.DeriveSeed(p.BaseSeed, p.Stream, i)
		out := values[i*p.Metrics : (i+1)*p.Metrics : (i+1)*p.Metrics]
		err := workers[w].Replicate(seed, out)
		// Failed replications re-run on seeds derived from the primary
		// seed, so the attempt-a stream of replication i never collides
		// with any primary stream and is the same at every worker count.
		for a := 1; err != nil && a <= p.MaxErrRetries && ctx.Err() == nil; a++ {
			retried.Add(1)
			err = workers[w].Replicate(rng.DeriveSeed(seed, "replicate.retry", a), out)
		}
		errs[i] = err
		return nil
	})
}
