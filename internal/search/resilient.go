package search

import (
	"errors"
	"fmt"
	"sort"
)

// ErrLeaderCrashed is the sentinel an Env returns (possibly wrapped) from
// LeaderPayoff when the current leader has crash-stopped. ResilientRun
// reacts by promoting a deputy through FailoverEnv; the plain runners
// propagate it like any other measurement error.
var ErrLeaderCrashed = errors.New("search: leader crashed")

// AckEnv is an Env that can report whether its most recent broadcast
// reached every live follower. ResilientRun uses it to re-send
// Ready messages that some follower missed (up to readyRepeats times).
type AckEnv interface {
	Env
	// LastBroadcastAcked reports whether every live follower received the
	// most recent broadcast.
	LastBroadcastAcked() bool
}

// FailoverEnv is an Env that supports replacing a crashed leader.
// ResilientRun proposes the next node id; the environment may adjust
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

const (
	// readyRepeats is how many times a Ready broadcast is repeated when
	// the environment reports a missed acknowledgement (AckEnv).
	readyRepeats = 2
	// measureK is how many samples ResilientRun takes per operating
	// point; the median rejects outlier measurements.
	measureK = 3
	// retries is how many times a failed sample is retried before it is
	// given up.
	retries = 3
)

// prober wraps an Env with ResilientRun's resilience machinery:
// per-sample retry, median-of-measureK outlier rejection, Ready
// re-broadcast on missing acknowledgement, leader failover, and a global
// probe budget.
type prober struct {
	env    Env
	budget int // Options.ProbeBudget
	res    *Result
	leader int
	used   int // raw LeaderPayoff calls
	fatal  error
}

// broadcast sends msg, re-sending Ready messages a missed acknowledgement
// reports as undelivered (when the environment supports acks).
func (p *prober) broadcast(t MsgType, w int) {
	p.env.Broadcast(Message{Type: t, From: p.leader, W: w})
	ack, ok := p.env.(AckEnv)
	if !ok || t == Announce {
		return
	}
	for r := 0; r < readyRepeats && !ack.LastBroadcastAcked(); r++ {
		p.env.Broadcast(Message{Type: t, From: p.leader, W: w})
		p.res.Rebroadcasts++
	}
}

// sample performs one raw measurement with retry and failover.
func (p *prober) sample(w int) (float64, probeStatus) {
	for attempt := 0; ; attempt++ {
		if p.budget > 0 && p.used >= p.budget {
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
		if attempt >= retries {
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

// measure returns the median of measureK samples at w. Individual failed
// samples are tolerated as long as at least one succeeds; the median of
// the survivors rejects outlier measurements. Between samples, a missed
// acknowledgement triggers another Ready re-broadcast, so a straggler
// that biases one sample has usually caught up by the next — the median
// then rejects the biased sample along with the outliers.
func (p *prober) measure(w int) (float64, probeStatus) {
	ack, hasAck := p.env.(AckEnv)
	samples := make([]float64, 0, measureK)
sampling:
	for k := 0; k < measureK; k++ {
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
// deployment conditions: a failed measurement is retried up to retries
// times, each operating point is measured median-of-measureK to reject
// payoff outliers, missed Ready acknowledgements trigger re-broadcasts, a
// crashed leader is replaced by a deputy that finishes the search, and an
// exhausted probe budget ends the walk with the best CW so far and
// Result.Degraded set instead of an error.
//
// An error is returned only when the walk cannot produce any answer: an
// invalid configuration, a starting point that could not be measured at
// all, or a leader crash without failover support.
func ResilientRun(env Env, leader, w0 int, opts Options) (Result, error) {
	o, err := checkStart(opts, w0)
	if err != nil {
		return Result{}, err
	}
	p := &prober{env: env, budget: o.ProbeBudget, res: &Result{Leader: leader}, leader: leader}
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
			if st == probeOK && v > best {
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
				if st == probeOK && v > best {
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
	switch st {
	case probeBudget:
		return finish(true)
	case probeFatal:
		res.W = wm
		return *res, p.fatal
	}
	return finish(false)
}

// resilientPatience is how many consecutive non-improving, re-verified
// steps the resilient unit walk tolerates before accepting the peak.
const resilientPatience = 2

// startError maps a failed initial measurement to the error the resilient
// runners return: without a baseline payoff there is no best-so-far to
// degrade to.
func (p *prober) startError(st probeStatus, w0 int) error {
	switch st {
	case probeFatal:
		return p.fatal
	case probeBudget:
		return fmt.Errorf("search: probe budget %d exhausted before the starting CW %d was measured",
			p.budget, w0)
	default:
		return fmt.Errorf("search: starting CW %d unmeasurable after %d retries", w0, retries)
	}
}
