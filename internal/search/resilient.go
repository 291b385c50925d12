package search

import (
	"errors"
	"fmt"
	"sort"
)

// ErrLeaderCrashed is the sentinel an Env returns (possibly wrapped) from
// LeaderPayoff when the current leader has crash-stopped. The resilient
// runners react by promoting a deputy through FailoverEnv; the plain
// runners propagate it like any other measurement error.
var ErrLeaderCrashed = errors.New("search: leader crashed")

// AckEnv is an Env that can report whether its most recent broadcast
// reached every live follower. The resilient runners use it to re-send
// Ready messages that some follower missed (Options.ReadyRepeats).
type AckEnv interface {
	Env
	// LastBroadcastAcked reports whether every live follower received the
	// most recent broadcast.
	LastBroadcastAcked() bool
}

// FailoverEnv is an Env that supports replacing a crashed leader. The
// resilient runners propose the next node id; the environment may adjust
// it (e.g. to skip crashed followers) and returns the deputy that
// actually took over.
type FailoverEnv interface {
	Env
	Failover(proposed int) (int, error)
}

// probeStatus classifies one hardened measurement.
type probeStatus int

const (
	probeOK     probeStatus = iota // median payoff available
	probeFailed                    // all samples failed; point is unmeasurable
	probeBudget                    // probe budget exhausted mid-measurement
	probeFatal                     // unrecoverable (leader crashed, no failover)
)

// prober wraps an Env with the resilience machinery shared by
// ResilientRun and ResilientAcceleratedSearch: per-sample retry,
// median-of-k outlier rejection, Ready re-broadcast on missing
// acknowledgement, leader failover, and a global probe budget.
type prober struct {
	env    Env
	o      Options
	res    *Result
	leader int
	used   int // raw LeaderPayoff calls
	fatal  error
}

func newProber(env Env, leader int, o Options) *prober {
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.MeasureK == 0 {
		o.MeasureK = 1
	}
	if o.ReadyRepeats == 0 {
		o.ReadyRepeats = 2
	}
	return &prober{env: env, o: o, res: &Result{Leader: leader}, leader: leader}
}

// broadcast sends msg, re-sending Ready messages a missed acknowledgement
// reports as undelivered (when the environment supports acks).
func (p *prober) broadcast(t MsgType, w int) {
	p.env.Broadcast(Message{Type: t, From: p.leader, W: w})
	ack, ok := p.env.(AckEnv)
	if !ok || t == Announce {
		return
	}
	for r := 0; r < p.o.ReadyRepeats && !ack.LastBroadcastAcked(); r++ {
		p.env.Broadcast(Message{Type: t, From: p.leader, W: w})
		p.res.Rebroadcasts++
	}
}

// sample performs one raw measurement with retry and failover.
func (p *prober) sample(w int) (float64, probeStatus) {
	for attempt := 0; ; attempt++ {
		if p.o.ProbeBudget > 0 && p.used >= p.o.ProbeBudget {
			return 0, probeBudget
		}
		v, err := p.env.LeaderPayoff(w)
		p.used++
		p.res.Measurements++
		if err == nil {
			return v, probeOK
		}
		if errors.Is(err, ErrLeaderCrashed) {
			if st := p.failover(w); st != probeOK {
				return 0, st
			}
			continue // crash handling does not consume a retry
		}
		if attempt >= p.o.Retries {
			return 0, probeFailed
		}
		p.res.Retries++
	}
}

// failover promotes a deputy after a leader crash and re-broadcasts the
// current Ready so the network hears from its new leader.
func (p *prober) failover(w int) probeStatus {
	fo, ok := p.env.(FailoverEnv)
	if !ok || p.res.FailedOver {
		// No failover support, or the deputy crashed too: unrecoverable.
		if p.res.FailedOver {
			p.fatal = fmt.Errorf("search: deputy leader %d crashed: %w", p.leader, ErrLeaderCrashed)
		} else {
			p.fatal = fmt.Errorf("search: leader %d crashed and the environment supports no failover: %w",
				p.leader, ErrLeaderCrashed)
		}
		return probeFatal
	}
	deputy, err := fo.Failover(p.leader + 1)
	if err != nil {
		p.fatal = fmt.Errorf("search: failover from crashed leader %d: %w", p.leader, err)
		return probeFatal
	}
	p.leader = deputy
	p.res.FailedOver = true
	p.res.Leader = deputy
	p.broadcast(Ready, w)
	return probeOK
}

// measure returns the median of MeasureK samples at w. Individual failed
// samples are tolerated as long as at least one succeeds; the median of
// the survivors rejects outlier measurements. Between samples, a missed
// acknowledgement triggers another Ready re-broadcast, so a straggler
// that biases one sample has usually caught up by the next — the median
// then rejects the biased sample along with the outliers.
func (p *prober) measure(w int) (float64, probeStatus) {
	ack, hasAck := p.env.(AckEnv)
	samples := make([]float64, 0, p.o.MeasureK)
sampling:
	for k := 0; k < p.o.MeasureK; k++ {
		if k > 0 && hasAck && !ack.LastBroadcastAcked() {
			p.env.Broadcast(Message{Type: Ready, From: p.leader, W: w})
			p.res.Rebroadcasts++
		}
		v, st := p.sample(w)
		switch st {
		case probeOK:
			samples = append(samples, v)
		case probeFailed:
			// Give the remaining samples a chance.
		case probeBudget:
			if len(samples) > 0 {
				break sampling // use what we have; the caller sees the budget next round
			}
			return 0, st
		default:
			return 0, st
		}
	}
	if len(samples) == 0 {
		return 0, probeFailed
	}
	sort.Float64s(samples)
	med := samples[len(samples)/2]
	p.res.Probes = append(p.res.Probes, Probe{W: w, Payoff: med})
	return med, probeOK
}

// ResilientRun executes the Section V.C unit-step walk hardened for
// deployment conditions: transient measurement errors are retried up to
// Options.Retries times, each operating point is measured
// median-of-k to reject payoff outliers, missed Ready acknowledgements
// trigger re-broadcasts, a crashed leader is replaced by a deputy that
// finishes the search, and an exhausted probe budget ends the walk with
// the best CW so far and Result.Degraded set instead of an error.
//
// An error is returned only when the walk cannot produce any answer: an
// invalid configuration, a starting point that could not be measured at
// all, or a leader crash without failover support.
func ResilientRun(env Env, leader, w0 int, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()
	if w0 < 1 || w0 > o.WMax {
		return Result{}, fmt.Errorf("search: starting CW %d outside [1, %d]", w0, o.WMax)
	}
	p := newProber(env, leader, o)
	res := p.res

	p.broadcast(StartSearch, w0)
	best, st := p.measure(w0)
	if st != probeOK {
		return *res, p.startError(st, w0)
	}
	wm := w0

	finish := func(degraded bool) (Result, error) {
		res.Degraded = degraded
		res.W = wm
		p.broadcast(Announce, wm)
		return *res, nil
	}

	// walk climbs in one direction with two safeguards against a wrong
	// stop under faults. First, a prospective stop re-measures the
	// incumbent wm: a best inflated by an outlier median that slipped
	// through would otherwise freeze the walk, and the fresh median
	// deflates it. Second, the walk only stops after resilientPatience
	// consecutive non-improving steps, so a single straggler-biased
	// median cannot end the climb early.
	walk := func(dir int) probeStatus {
		fails := 0
		for w := wm + dir; w >= 1 && w <= o.WMax; w += dir {
			p.broadcast(Ready, w)
			v, st := p.measure(w)
			if st == probeBudget || st == probeFatal {
				return st
			}
			if st == probeOK && v > best+o.MinImprove {
				best, wm = v, w
				fails = 0
				continue
			}
			// Prospective stop: re-verify the incumbent.
			p.broadcast(Ready, wm)
			rb, st2 := p.measure(wm)
			if st2 == probeBudget || st2 == probeFatal {
				return st2
			}
			if st2 == probeOK && rb < best {
				best = rb
				if st == probeOK && v > best+o.MinImprove {
					best, wm = v, w
					fails = 0
					continue
				}
			}
			if fails++; fails >= resilientPatience {
				return probeOK
			}
		}
		return probeOK
	}

	// Right-Search, then Left-Search if right made no progress.
	st = walk(+1)
	if st == probeOK && wm == w0 {
		st = walk(-1)
	}
	switch {
	case st == probeBudget:
		return finish(true)
	case st == probeFatal:
		res.W = wm
		return *res, p.fatal
	case wm > w0:
		res.Direction = 1
	case wm < w0:
		res.Direction = -1
	}
	return finish(false)
}

// resilientPatience is how many consecutive non-improving, re-verified
// steps the resilient unit walk tolerates before accepting the peak.
const resilientPatience = 2

// ResilientAcceleratedSearch runs the O(log W*) accelerated walk through
// the same hardening machinery as ResilientRun (retry, median-of-k, ack
// re-broadcast, failover, probe budget with best-so-far degradation).
func ResilientAcceleratedSearch(env Env, leader, w0 int, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()
	if w0 < 1 || w0 > o.WMax {
		return Result{}, fmt.Errorf("search: starting CW %d outside [1, %d]", w0, o.WMax)
	}
	p := newProber(env, leader, o)
	res := p.res
	cache := make(map[int]float64)
	measure := func(w int) (float64, probeStatus) {
		if v, ok := cache[w]; ok {
			return v, probeOK
		}
		p.broadcast(Ready, w)
		v, st := p.measure(w)
		if st == probeOK {
			cache[w] = v
		}
		return v, st
	}

	p.broadcast(StartSearch, w0)
	best, st := p.measure(w0)
	if st != probeOK {
		return *res, p.startError(st, w0)
	}
	cache[w0] = best
	wm := w0

	finish := func(degraded bool) (Result, error) {
		res.Degraded = degraded
		res.W = wm
		p.broadcast(Announce, wm)
		return *res, nil
	}

	// Expansion: geometric steps right, then left if right fails.
	for _, dir := range []int{1, -1} {
		step := 1
		for {
			w := wm + dir*step
			if w < 1 || w > o.WMax {
				break
			}
			v, st := measure(w)
			if st == probeBudget {
				return finish(true)
			}
			if st == probeFatal {
				res.W = wm
				return *res, p.fatal
			}
			if st == probeFailed || v <= best+o.MinImprove {
				// Prospective stop: re-measure the incumbent with a fresh
				// median before trusting it — an outlier-inflated best
				// would otherwise end the expansion early.
				p.broadcast(Ready, wm)
				rb, st2 := p.measure(wm)
				if st2 == probeBudget {
					return finish(true)
				}
				if st2 == probeFatal {
					res.W = wm
					return *res, p.fatal
				}
				if st2 == probeOK {
					cache[wm] = rb
					if rb < best {
						best = rb
						if st == probeOK && v > best+o.MinImprove {
							best, wm = v, w
							res.Direction = dir
							step *= 2
							continue
						}
					}
				}
				break
			}
			best, wm = v, w
			res.Direction = dir
			step *= 2
		}
		if wm != w0 {
			break
		}
	}

	// Refinement: shrink the step around wm.
	for step := max(wm/4, 1); step >= 1; step /= 2 {
		for {
			improved := false
			for _, dir := range []int{1, -1} {
				w := wm + dir*step
				if w < 1 || w > o.WMax {
					continue
				}
				v, st := measure(w)
				if st == probeBudget {
					return finish(true)
				}
				if st == probeFatal {
					res.W = wm
					return *res, p.fatal
				}
				if st == probeFailed {
					continue
				}
				if v > best+o.MinImprove {
					best, wm = v, w
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		if step == 1 {
			break
		}
	}
	return finish(false)
}

// startError maps a failed initial measurement to the error the resilient
// runners return: without a baseline payoff there is no best-so-far to
// degrade to.
func (p *prober) startError(st probeStatus, w0 int) error {
	switch st {
	case probeFatal:
		return p.fatal
	case probeBudget:
		return fmt.Errorf("search: probe budget %d exhausted before the starting CW %d was measured",
			p.o.ProbeBudget, w0)
	default:
		return fmt.Errorf("search: starting CW %d unmeasurable after %d retries", w0, p.o.Retries)
	}
}
