// Package search implements the paper's Section V.C distributed algorithm
// for approaching the efficient NE when the population size is unknown:
// a leader node broadcasts Start-Search, walks the common CW value up
// (Right-Search) and, if the first step already hurt, down (Left-Search),
// measuring its own payoff at each operating point, and finally announces
// the best CW found.
//
// The protocol is simulated at the message level: an Env carries the
// broadcast medium and the payoff measurement. Three environments are
// provided — exact analytic payoffs, simulator-measured (noisy) payoffs,
// and a lossy broadcast medium under which some nodes miss Ready messages
// so the leader measures a heterogeneous profile.
//
// The paper notes better algorithms exist; AcceleratedSearch implements
// one (geometric step growth with step-halving refinement) and the bench
// suite compares probe counts.
package search

import (
	"errors"
	"fmt"
	"math"
)

// MsgType enumerates the protocol's broadcast messages.
type MsgType int

const (
	// StartSearch opens the search at a starting CW.
	StartSearch MsgType = iota + 1
	// Ready carries the next CW every node should adopt.
	Ready
	// Announce publishes the final CW of the efficient NE.
	Announce
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	switch m {
	case StartSearch:
		return "start-search"
	case Ready:
		return "ready"
	case Announce:
		return "announce"
	default:
		return fmt.Sprintf("MsgType(%d)", int(m))
	}
}

// Message is one broadcast protocol message.
type Message struct {
	Type MsgType
	From int
	W    int
}

// Env is the world the protocol runs against.
type Env interface {
	// Broadcast delivers msg to the other nodes (possibly unreliably).
	// Nodes react to Ready/StartSearch by setting their CW to msg.W.
	Broadcast(msg Message)
	// LeaderPayoff measures the leader's payoff at the current network
	// configuration with the leader itself at CW w.
	LeaderPayoff(w int) (float64, error)
}

// Probe records one payoff measurement.
type Probe struct {
	W      int
	Payoff float64
}

// Result is the outcome of a search.
type Result struct {
	// W is the CW value announced as the efficient NE.
	W int
	// Probes lists every accepted measurement in order (for the resilient
	// runners, one entry per operating point with the median payoff).
	Probes []Probe
	// Direction is +1 if Right-Search found the peak, -1 if Left-Search
	// did, 0 if the start was already the peak.
	Direction int
	// Leader is the node that announced the result — the original leader,
	// or the deputy after a failover.
	Leader int
	// Degraded is set by the resilient runners when the probe budget ran
	// out before the walk finished; W is then the best CW found so far.
	Degraded bool
	// FailedOver reports that the leader crashed mid-search and a deputy
	// completed it.
	FailedOver bool
	// Measurements counts raw LeaderPayoff calls, including retries and
	// the extra samples of median-of-k (>= len(Probes)).
	Measurements int
	// Retries counts measurement attempts repeated after transient errors.
	Retries int
	// Rebroadcasts counts Ready re-broadcasts sent because a follower
	// missed the previous one (AckEnv environments only).
	Rebroadcasts int
}

// ProbeCount returns the number of payoff measurements used.
func (r Result) ProbeCount() int { return len(r.Probes) }

// Options tunes the search.
type Options struct {
	// WMax bounds the walk. Zero defaults to 4096.
	WMax int
	// MinImprove is the minimum payoff improvement that counts as
	// progress; it makes hill climbing robust to measurement noise.
	// Zero reproduces the paper's strict comparison.
	MinImprove float64

	// The remaining fields tune the resilient runners (ResilientRun,
	// ResilientAcceleratedSearch); Run and AcceleratedSearch ignore them.

	// Retries is how many times a failed payoff measurement is retried
	// before the sample is given up. Zero defaults to 2.
	Retries int
	// MeasureK measures each operating point this many times and keeps
	// the median, rejecting outlier measurements. Zero defaults to 1
	// (a single sample, the paper's behavior).
	MeasureK int
	// ProbeBudget bounds the total number of raw LeaderPayoff calls
	// (including retries and median-of-k samples). When it runs out the
	// resilient runners announce the best CW so far and set
	// Result.Degraded instead of erroring. Zero means unlimited.
	ProbeBudget int
	// ReadyRepeats is how many times a Ready broadcast is repeated when
	// the environment reports a missed acknowledgement (AckEnv). Zero
	// defaults to 2.
	ReadyRepeats int
}

// Validate rejects nonsensical option combinations. The zero value is
// valid (every field has a documented default).
func (o Options) Validate() error {
	if o.WMax < 0 {
		return fmt.Errorf("search: negative WMax %d", o.WMax)
	}
	if o.MinImprove < 0 || math.IsNaN(o.MinImprove) {
		return fmt.Errorf("search: invalid MinImprove %g", o.MinImprove)
	}
	if o.Retries < 0 {
		return fmt.Errorf("search: negative Retries %d", o.Retries)
	}
	if o.MeasureK < 0 {
		return fmt.Errorf("search: negative MeasureK %d", o.MeasureK)
	}
	if o.ProbeBudget < 0 {
		return fmt.Errorf("search: negative ProbeBudget %d", o.ProbeBudget)
	}
	if o.ReadyRepeats < 0 {
		return fmt.Errorf("search: negative ReadyRepeats %d", o.ReadyRepeats)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.WMax <= 0 {
		o.WMax = 4096
	}
	return o
}

// Run executes the paper's algorithm verbatim from starting CW w0 with
// the given leader id. On a measurement error it returns the probes
// gathered so far alongside the error, so callers can see where the walk
// died.
func Run(env Env, leader, w0 int, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()
	if w0 < 1 || w0 > o.WMax {
		return Result{}, fmt.Errorf("search: starting CW %d outside [1, %d]", w0, o.WMax)
	}
	res := Result{Leader: leader}
	measure := func(w int) (float64, error) {
		p, err := env.LeaderPayoff(w)
		res.Measurements++
		if err != nil {
			return 0, fmt.Errorf("search: measuring payoff at W=%d: %w", w, err)
		}
		res.Probes = append(res.Probes, Probe{W: w, Payoff: p})
		return p, nil
	}

	// Step 1: Start-Search at w0.
	env.Broadcast(Message{Type: StartSearch, From: leader, W: w0})
	best, err := measure(w0)
	if err != nil {
		return res, err
	}
	wm := w0

	// Step 2: Right-Search.
	for w := w0 + 1; w <= o.WMax; w++ {
		env.Broadcast(Message{Type: Ready, From: leader, W: w})
		p, err := measure(w)
		if err != nil {
			return res, err
		}
		if p <= best+o.MinImprove {
			break
		}
		best, wm = p, w
	}
	if wm > w0 {
		res.Direction = 1
	}

	// Step 3: Left-Search, only if Right-Search made no progress (the
	// paper: skip unless Wm "== W0 + 1" in its 1-indexed bookkeeping,
	// i.e. the very first rightward step already decreased the payoff).
	if wm == w0 {
		for w := w0 - 1; w >= 1; w-- {
			env.Broadcast(Message{Type: Ready, From: leader, W: w})
			p, err := measure(w)
			if err != nil {
				return res, err
			}
			if p <= best+o.MinImprove {
				break
			}
			best, wm = p, w
		}
		if wm < w0 {
			res.Direction = -1
		}
	}

	// Step 4: announce.
	env.Broadcast(Message{Type: Announce, From: leader, W: wm})
	res.W = wm
	return res, nil
}

// AcceleratedSearch is the package's improved variant: it grows the step
// geometrically while the payoff improves, then refines by halving the
// step around the best point. It uses O(log W*) probes instead of the
// paper's O(W*) while still only requiring local payoff measurements.
func AcceleratedSearch(env Env, leader, w0 int, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()
	if w0 < 1 || w0 > o.WMax {
		return Result{}, fmt.Errorf("search: starting CW %d outside [1, %d]", w0, o.WMax)
	}
	res := Result{Leader: leader}
	cache := make(map[int]float64)
	measure := func(w int) (float64, error) {
		if p, ok := cache[w]; ok {
			return p, nil
		}
		env.Broadcast(Message{Type: Ready, From: leader, W: w})
		p, err := env.LeaderPayoff(w)
		res.Measurements++
		if err != nil {
			return 0, fmt.Errorf("search: measuring payoff at W=%d: %w", w, err)
		}
		cache[w] = p
		res.Probes = append(res.Probes, Probe{W: w, Payoff: p})
		return p, nil
	}

	env.Broadcast(Message{Type: StartSearch, From: leader, W: w0})
	best, err := measure(w0)
	if err != nil {
		return res, err
	}
	wm := w0

	// Expansion: try geometric steps right, then left if right fails.
	for _, dir := range []int{1, -1} {
		step := 1
		for {
			w := wm + dir*step
			if w < 1 || w > o.WMax {
				break
			}
			p, err := measure(w)
			if err != nil {
				return res, err
			}
			if p <= best+o.MinImprove {
				break
			}
			best, wm = p, w
			res.Direction = dir
			step *= 2
		}
		if wm != w0 {
			break // progress in this direction; the peak is bracketed
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
				p, err := measure(w)
				if err != nil {
					return res, err
				}
				if p > best+o.MinImprove {
					best, wm = p, w
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

	env.Broadcast(Message{Type: Announce, From: leader, W: wm})
	res.W = wm
	return res, nil
}

// ErrNoEnv is returned by constructors given a nil dependency.
var ErrNoEnv = errors.New("search: nil dependency")
