// Package service is the fault-tolerant simulation job service behind
// cmd/selfishmacd: an HTTP/JSON API (submit / status / result / cancel /
// list, plus health and readiness probes) over a bounded priority job
// queue and a worker pool that drives the repository's simulation
// machinery (internal/replicate, internal/experiments).
//
// The robustness contract, piece by piece:
//
//   - Backpressure, not buffering: the queue is bounded; a submit
//     against a full queue fails fast with ErrQueueFull, which the HTTP
//     layer maps to 429 with a Retry-After hint. Nothing is dropped
//     silently and memory stays bounded under overload.
//
//   - Panic isolation: a panicking job is recovered per job, marked
//     Failed with the stack attached, and the worker keeps serving. A
//     bad experiment can never take the daemon down.
//
//   - Deadlines and cancellation: every job runs under a context with a
//     per-job deadline; DELETE cancels it. Cancellation reaches the
//     replication layer's round-synchronous loop, so a cancelled
//     simulation job still returns the bit-identical prefix of its
//     uncancelled result, flagged Cancelled (see internal/replicate).
//
//   - Graceful shutdown: intake stops (readiness goes 503), queued jobs
//     are cancelled, running jobs drain under a deadline, and only then
//     are survivors hard-cancelled.
package service

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// Sentinel errors. API layers match these with errors.Is; the HTTP
// handlers map them to status codes (ErrQueueFull → 429, ErrDraining →
// 503, ErrUnknownJob → 404, ErrUnknownKind / validation errors → 400).
var (
	// ErrQueueFull is returned by Submit when the bounded job queue is at
	// capacity. It is the service's backpressure signal: the caller
	// should retry later, not queue harder.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining is returned by Submit once shutdown has begun.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownJob is returned for job IDs the registry has never seen.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrUnknownKind is returned for submissions naming an unregistered
	// job kind.
	ErrUnknownKind = errors.New("service: unknown job kind")
	// ErrJobFinished is returned when cancelling a job that already
	// reached a terminal state.
	ErrJobFinished = errors.New("service: job already finished")
	// ErrJobPanicked wraps the recovered value of a job that panicked.
	ErrJobPanicked = errors.New("service: job panicked")

	// Config validation sentinels, in the Validate/ApplyDefaults idiom:
	// ApplyDefaults corrects zero and negative fields to usable values,
	// Validate rejects what defaults cannot fix.
	ErrBadQueueCap     = errors.New("service: queue capacity must be >= 1")
	ErrBadWorkers      = errors.New("service: worker count must be >= 1")
	ErrBadTimeout      = errors.New("service: timeouts must be positive")
	ErrTimeoutInverted = errors.New("service: default job timeout exceeds the maximum")
)

// The server's fixed limits.
const (
	// maxBodyBytes bounds the accepted request body size.
	maxBodyBytes = 1 << 20
	// progressKeep bounds the per-job progress lines retained (older
	// lines are dropped, the total count is kept).
	progressKeep = 512
)

// Config tunes the daemon. The server itself never listens (cmd/selfishmacd
// owns the address), so tests can drive Handler() directly. The zero
// value is not runnable as-is; call ApplyDefaults first (New does both).
type Config struct {
	// QueueCap bounds how many jobs may wait in the queue (running jobs
	// excluded). A full queue rejects submissions with ErrQueueFull.
	QueueCap int
	// Workers is the number of jobs run concurrently.
	Workers int
	// DefaultJobTimeout is applied to jobs that do not request their own
	// deadline; MaxJobTimeout caps what a job may request.
	DefaultJobTimeout time.Duration
	MaxJobTimeout     time.Duration
	// DrainTimeout bounds how long Shutdown waits for running jobs to
	// finish before hard-cancelling them.
	DrainTimeout time.Duration
}

// ApplyDefaults fills zero or negative fields with production defaults,
// leaving valid user-set values untouched.
func (c *Config) ApplyDefaults() {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultJobTimeout <= 0 {
		c.DefaultJobTimeout = 15 * time.Minute
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 2 * time.Hour
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
}

// Validate rejects configurations ApplyDefaults cannot repair. It
// reports every violation (errors.Join), each matchable with errors.Is.
func (c Config) Validate() error {
	var errs []error
	if c.QueueCap < 1 {
		errs = append(errs, fmt.Errorf("%w (got %d)", ErrBadQueueCap, c.QueueCap))
	}
	if c.Workers < 1 {
		errs = append(errs, fmt.Errorf("%w (got %d)", ErrBadWorkers, c.Workers))
	}
	if c.DefaultJobTimeout <= 0 || c.MaxJobTimeout <= 0 || c.DrainTimeout <= 0 {
		errs = append(errs, ErrBadTimeout)
	}
	if c.DefaultJobTimeout > 0 && c.MaxJobTimeout > 0 && c.DefaultJobTimeout > c.MaxJobTimeout {
		errs = append(errs, fmt.Errorf("%w (%v > %v)", ErrTimeoutInverted, c.DefaultJobTimeout, c.MaxJobTimeout))
	}
	return errors.Join(errs...)
}
