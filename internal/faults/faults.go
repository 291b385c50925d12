// Package faults is a deterministic, composable fault-injection layer
// for the distributed NE search protocol. FaultyEnv wraps any search.Env
// and injects, per configured probability: broadcast message drop (per
// follower when the inner environment exposes per-node delivery, else per
// message), duplication, bounded delay with reordering, payoff-measurement
// outliers, transient measurement failures, and crash-stop of followers
// or of the leader mid-search.
//
// Every fault stream is seeded independently via rng.DeriveSeed from one
// base seed, so any scenario replays byte-identically — enabling one
// fault never shifts another fault's random stream — and a failure seen
// in production or CI can be replayed from its seed alone.
package faults

import (
	"errors"
	"fmt"
	"math"

	"selfishmac/internal/rng"
	"selfishmac/internal/search"
)

// Config selects which faults to inject and how hard.
// The zero value injects nothing (a transparent wrapper).
type Config struct {
	// Seed derives every fault stream (rng.DeriveSeed per fault kind).
	Seed uint64
	// DropProb is the probability a broadcast is lost — independently per
	// follower when the inner env implements PartialEnv, else for the
	// whole message.
	DropProb float64
	// DupProb is the probability a delivered broadcast arrives twice.
	DupProb float64
	// DelayProb is the probability a broadcast is held back and delivered
	// (out of order) during a later broadcast.
	DelayProb float64
	// MaxDelay bounds the delay in subsequent broadcasts. Zero with a
	// positive DelayProb defaults to 2.
	MaxDelay int
	// OutlierProb is the probability a payoff measurement is replaced by
	// an outlier (scaled by ±OutlierScale).
	OutlierProb float64
	// OutlierScale is the outlier magnitude multiplier. Zero defaults to 10.
	OutlierScale float64
	// FailProb is the probability a payoff measurement errors outright
	// (a transient failure the retry logic can absorb).
	FailProb float64
	// LeaderCrashAfter crash-stops the leader's search agent after this
	// many successful payoff measurements. Zero means never. The crash is
	// of the protocol process, not the radio: the station's MAC keeps
	// contending and, once a deputy takes over through Failover, resumes
	// following the deputy's Ready broadcasts like any follower.
	LeaderCrashAfter int
	// FollowerCrashProb is the per-live-follower, per-broadcast
	// probability of a protocol crash-stop (PartialEnv inner environments
	// only). A crashed follower stops processing messages, so its MAC
	// keeps contending at its stale CW — a permanent straggler, the worst
	// case for the search.
	FollowerCrashProb float64
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	var errs []error
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropProb", c.DropProb}, {"DupProb", c.DupProb}, {"DelayProb", c.DelayProb},
		{"OutlierProb", c.OutlierProb}, {"FailProb", c.FailProb},
		{"FollowerCrashProb", c.FollowerCrashProb},
	} {
		if p.v < 0 || p.v >= 1 || math.IsNaN(p.v) {
			errs = append(errs, fmt.Errorf("faults: %s %g outside [0, 1)", p.name, p.v))
		}
	}
	if c.MaxDelay < 0 {
		errs = append(errs, fmt.Errorf("faults: negative MaxDelay %d", c.MaxDelay))
	}
	if c.OutlierScale < 0 {
		errs = append(errs, fmt.Errorf("faults: negative OutlierScale %g", c.OutlierScale))
	}
	if c.LeaderCrashAfter < 0 {
		errs = append(errs, fmt.Errorf("faults: negative LeaderCrashAfter %d", c.LeaderCrashAfter))
	}
	return errors.Join(errs...)
}

// Stats counts every injected fault, for assertions and reports.
type Stats struct {
	Broadcasts        int // messages the protocol sent
	Dropped           int // (message, follower) or whole-message losses
	Duplicated        int // duplicate deliveries
	Delayed           int // messages queued for later delivery
	Reordered         int // delayed messages delivered after a newer one
	Outliers          int // corrupted payoff measurements
	TransientFailures int // measurements that returned an error
	FollowerCrashes   int // followers crash-stopped
	LeaderCrashes     int // leader crash-stops triggered
	Failovers         int // deputy promotions performed
}

// PartialEnv is an inner environment exposing per-node delivery, enabling
// per-follower drop, follower crash-stop, and deputy promotion.
// *search.AnalyticEnv implements it.
type PartialEnv interface {
	search.Env
	NumNodes() int
	LeaderID() int
	DeliverTo(node int, msg search.Message)
	SetLeader(node int) error
}

var _ PartialEnv = (*search.AnalyticEnv)(nil)

// FaultyEnv injects the configured faults around an inner search.Env.
// It implements search.Env, search.AckEnv, and search.FailoverEnv, so
// the resilient runner gets acknowledgement and failover signals for
// free. Not safe for concurrent use (neither is the protocol).
type FaultyEnv struct {
	inner search.Env
	part  PartialEnv // non-nil when inner supports per-node delivery
	cfg   Config

	drop, dup, delay, outlier, fail, crash *rng.Source

	queue        []delayedMsg
	now          int // broadcast counter, the delay clock
	crashed      []bool
	leaderDown   bool
	measurements int

	// Acknowledgement state is cumulative: a follower is stale until it
	// has applied the *current* W, whichever send delivered it, and a
	// reordered stale delivery makes it stale again.
	curW     int          // W of the latest StartSearch/Ready (0 before any)
	stale    map[int]bool // per-follower staleness (PartialEnv mode)
	staleMsg bool         // whole-network staleness (message mode)

	// Stats tallies every fault injected so far.
	Stats Stats
}

type delayedMsg struct {
	msg search.Message
	due int
}

// New wraps inner with the configured fault injection.
func New(inner search.Env, cfg Config) (*FaultyEnv, error) {
	if inner == nil {
		return nil, search.ErrNoEnv
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.OutlierScale == 0 {
		cfg.OutlierScale = 10
	}
	if cfg.MaxDelay == 0 && cfg.DelayProb > 0 {
		cfg.MaxDelay = 2
	}
	e := &FaultyEnv{
		inner:   inner,
		cfg:     cfg,
		drop:    rng.New(rng.DeriveSeed(cfg.Seed, "faults.drop", 0)),
		dup:     rng.New(rng.DeriveSeed(cfg.Seed, "faults.dup", 0)),
		delay:   rng.New(rng.DeriveSeed(cfg.Seed, "faults.delay", 0)),
		outlier: rng.New(rng.DeriveSeed(cfg.Seed, "faults.outlier", 0)),
		fail:    rng.New(rng.DeriveSeed(cfg.Seed, "faults.fail", 0)),
		crash:   rng.New(rng.DeriveSeed(cfg.Seed, "faults.crash", 0)),
	}
	if part, ok := inner.(PartialEnv); ok {
		e.part = part
		e.crashed = make([]bool, part.NumNodes())
		e.stale = make(map[int]bool)
	}
	return e, nil
}

// Broadcast implements search.Env: it first flushes due delayed messages
// (out of order relative to their send order), then crash-stops followers,
// then delivers msg subject to drop, duplication, and delay.
func (e *FaultyEnv) Broadcast(msg search.Message) {
	e.Stats.Broadcasts++
	e.now++

	// Deliver messages whose delay expired; they arrive after newer ones.
	kept := e.queue[:0]
	for _, d := range e.queue {
		if d.due <= e.now {
			e.Stats.Reordered++
			e.deliver(d.msg)
		} else {
			kept = append(kept, d)
		}
	}
	e.queue = kept

	// Crash-stop followers. A crashed follower leaves the acknowledgement
	// set: it will never confirm anything again.
	if e.part != nil && e.cfg.FollowerCrashProb > 0 {
		leader := e.part.LeaderID()
		for i := range e.crashed {
			if i == leader || e.crashed[i] {
				continue
			}
			if e.crash.Float64() < e.cfg.FollowerCrashProb {
				e.crashed[i] = true
				delete(e.stale, i)
				e.Stats.FollowerCrashes++
			}
		}
	}

	// A CW-bearing message with a new W opens a new acknowledgement epoch:
	// every live follower is stale until some send delivers the new W to it.
	if cwMessage(msg) && msg.W != e.curW {
		e.curW = msg.W
		if e.part != nil {
			leader := e.part.LeaderID()
			for i := range e.crashed {
				if i != leader && !e.crashed[i] {
					e.stale[i] = true
				}
			}
		} else {
			e.staleMsg = true
		}
	}

	// Delay the whole message?
	if e.cfg.DelayProb > 0 && e.delay.Float64() < e.cfg.DelayProb {
		e.queue = append(e.queue, delayedMsg{msg: msg, due: e.now + 1 + e.delay.Intn(e.cfg.MaxDelay)})
		e.Stats.Delayed++
		return
	}

	e.deliver(msg)
	if e.cfg.DupProb > 0 && e.dup.Float64() < e.cfg.DupProb {
		e.Stats.Duplicated++
		e.deliver(msg)
	}
}

// cwMessage reports whether msg sets the followers' contention window.
func cwMessage(msg search.Message) bool {
	return msg.Type == search.StartSearch || msg.Type == search.Ready
}

// deliver pushes msg toward the followers and updates the acknowledgement
// state: a delivery of the current W clears a follower's staleness, while
// a reordered delivery of an older W reverts the follower and makes it
// stale again.
func (e *FaultyEnv) deliver(msg search.Message) {
	if e.part == nil {
		// Message-level faults only: the whole broadcast is lost or not.
		if e.cfg.DropProb > 0 && e.drop.Float64() < e.cfg.DropProb {
			e.Stats.Dropped++
			return
		}
		e.inner.Broadcast(msg)
		if cwMessage(msg) {
			e.staleMsg = msg.W != e.curW
		}
		return
	}
	// Per-follower delivery. The inner Broadcast is bypassed so each
	// follower's outcome is independent; crashed followers never receive.
	leader := e.part.LeaderID()
	for i := 0; i < e.part.NumNodes(); i++ {
		if i == leader || e.crashed[i] {
			continue
		}
		if e.cfg.DropProb > 0 && e.drop.Float64() < e.cfg.DropProb {
			e.Stats.Dropped++
			continue
		}
		e.part.DeliverTo(i, msg)
		if cwMessage(msg) {
			if msg.W == e.curW {
				delete(e.stale, i)
			} else {
				e.stale[i] = true
			}
		}
	}
}

// LeaderPayoff implements search.Env with leader crash-stop, transient
// failures, and measurement outliers.
func (e *FaultyEnv) LeaderPayoff(w int) (float64, error) {
	if e.leaderDown {
		return 0, fmt.Errorf("faults: %w", search.ErrLeaderCrashed)
	}
	if e.cfg.LeaderCrashAfter > 0 && e.measurements >= e.cfg.LeaderCrashAfter {
		e.leaderDown = true
		e.Stats.LeaderCrashes++
		return 0, fmt.Errorf("faults: %w", search.ErrLeaderCrashed)
	}
	if e.cfg.FailProb > 0 && e.fail.Float64() < e.cfg.FailProb {
		e.Stats.TransientFailures++
		return 0, fmt.Errorf("faults: transient measurement failure at W=%d", w)
	}
	p, err := e.inner.LeaderPayoff(w)
	if err != nil {
		return 0, err
	}
	e.measurements++
	if e.cfg.OutlierProb > 0 && e.outlier.Float64() < e.cfg.OutlierProb {
		e.Stats.Outliers++
		// Symmetric gross errors: far above or far below the true value.
		if e.outlier.Float64() < 0.5 {
			p = (math.Abs(p) + 1) * e.cfg.OutlierScale
		} else {
			p = -(math.Abs(p) + 1) * e.cfg.OutlierScale
		}
	}
	return p, nil
}

// LastBroadcastAcked implements search.AckEnv: true when every live
// follower holds the current W — acknowledgement is cumulative across
// re-sends, so a follower that caught an earlier copy counts as acked.
func (e *FaultyEnv) LastBroadcastAcked() bool {
	if e.part != nil {
		return len(e.stale) == 0
	}
	return !e.staleMsg
}

// Failover implements search.FailoverEnv: it promotes the first live node
// at or after the proposed id (wrapping around and skipping crashed
// followers when the inner env is a PartialEnv) and clears the crashed
// flag so the deputy's measurements succeed.
func (e *FaultyEnv) Failover(proposed int) (int, error) {
	if !e.leaderDown {
		return 0, errors.New("faults: failover requested but the leader is up")
	}
	deputy := proposed
	if e.part != nil {
		n := e.part.NumNodes()
		old := e.part.LeaderID()
		deputy = -1
		for k := 0; k < n; k++ {
			cand := ((proposed + k) % n)
			if cand != old && !e.crashed[cand] {
				deputy = cand
				break
			}
		}
		if deputy < 0 {
			return 0, errors.New("faults: no live node left to promote")
		}
		if err := e.part.SetLeader(deputy); err != nil {
			return 0, err
		}
		// The old leader's station is now a follower that has not yet
		// heard from the deputy: stale until a Ready reaches it.
		if !e.crashed[old] {
			e.stale[old] = true
		}
	}
	e.leaderDown = false
	e.cfg.LeaderCrashAfter = 0 // the deputy does not inherit the crash plan
	e.Stats.Failovers++
	return deputy, nil
}

// CrashedFollowers returns the indices of crash-stopped followers.
func (e *FaultyEnv) CrashedFollowers() []int {
	var out []int
	for i, c := range e.crashed {
		if c {
			out = append(out, i)
		}
	}
	return out
}

var (
	_ search.Env         = (*FaultyEnv)(nil)
	_ search.AckEnv      = (*FaultyEnv)(nil)
	_ search.FailoverEnv = (*FaultyEnv)(nil)
)
