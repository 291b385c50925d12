// Package faults is a deterministic fault-injection layer for the
// distributed NE search protocol, and the search's only lossy broadcast
// medium. FaultyEnv wraps a search.AnalyticEnv and injects, per
// configured probability: per-follower broadcast drop, duplication,
// payoff-measurement outliers, transient measurement failures, and
// crash-stop of the leader mid-search.
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
	// DropProb is the probability a broadcast is lost, independently per
	// follower. The leader never misses its own broadcast.
	DropProb float64
	// DupProb is the probability a delivered broadcast arrives twice.
	DupProb float64
	// OutlierProb is the probability a payoff measurement is replaced by
	// an outlier (scaled by ±outlierScale).
	OutlierProb float64
	// FailProb is the probability a payoff measurement errors outright
	// (a transient failure the retry logic can absorb).
	FailProb float64
	// LeaderCrashAfter crash-stops the leader's search agent after this
	// many successful payoff measurements. Zero means never. The crash is
	// of the protocol process, not the radio: the station's MAC keeps
	// contending and, once a deputy takes over through Failover, resumes
	// following the deputy's Ready broadcasts like any follower.
	LeaderCrashAfter int
}

// outlierScale is the outlier magnitude multiplier: an outlier replaces
// a payoff u with ±outlierScale·(|u|+1).
const outlierScale = 10

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	var errs []error
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropProb", c.DropProb}, {"DupProb", c.DupProb},
		{"OutlierProb", c.OutlierProb}, {"FailProb", c.FailProb},
	} {
		if p.v < 0 || p.v >= 1 || math.IsNaN(p.v) {
			errs = append(errs, fmt.Errorf("faults: %s %g outside [0, 1)", p.name, p.v))
		}
	}
	if c.LeaderCrashAfter < 0 {
		errs = append(errs, fmt.Errorf("faults: negative LeaderCrashAfter %d", c.LeaderCrashAfter))
	}
	return errors.Join(errs...)
}

// Stats counts every injected fault, for assertions and reports.
type Stats struct {
	Broadcasts        int // messages the protocol sent
	Dropped           int // (message, follower) losses
	Duplicated        int // duplicate deliveries
	Outliers          int // corrupted payoff measurements
	TransientFailures int // measurements that returned an error
	LeaderCrashes     int // leader crash-stops triggered
	Failovers         int // deputy promotions performed
}

// FaultyEnv injects the configured faults around a search.AnalyticEnv.
// It implements search.Env, search.AckEnv, and search.FailoverEnv, so
// the resilient runner gets acknowledgement and failover signals for
// free. Not safe for concurrent use (neither is the protocol).
type FaultyEnv struct {
	inner *search.AnalyticEnv
	cfg   Config

	drop, dup, outlier, fail *rng.Source

	leaderDown   bool
	measurements int

	// Acknowledgement state is cumulative: a follower is stale until it
	// has applied the *current* W, whichever send delivered it.
	curW  int          // W of the latest StartSearch/Ready (0 before any)
	stale map[int]bool // followers that have not yet applied curW

	// Stats tallies every fault injected so far.
	Stats Stats
}

// New wraps inner with the configured fault injection.
func New(inner *search.AnalyticEnv, cfg Config) (*FaultyEnv, error) {
	if inner == nil {
		return nil, search.ErrNoEnv
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FaultyEnv{
		inner:   inner,
		cfg:     cfg,
		drop:    rng.New(rng.DeriveSeed(cfg.Seed, "faults.drop", 0)),
		dup:     rng.New(rng.DeriveSeed(cfg.Seed, "faults.dup", 0)),
		outlier: rng.New(rng.DeriveSeed(cfg.Seed, "faults.outlier", 0)),
		fail:    rng.New(rng.DeriveSeed(cfg.Seed, "faults.fail", 0)),
		stale:   make(map[int]bool),
	}, nil
}

// Broadcast implements search.Env: it delivers msg to each follower
// subject to drop, then possibly delivers it a second time.
func (e *FaultyEnv) Broadcast(msg search.Message) {
	e.Stats.Broadcasts++

	// A CW-bearing message with a new W opens a new acknowledgement epoch:
	// every follower is stale until some send delivers the new W to it.
	if cwMessage(msg) && msg.W != e.curW {
		e.curW = msg.W
		leader := e.inner.LeaderID()
		for i := 0; i < e.inner.NumNodes(); i++ {
			if i != leader {
				e.stale[i] = true
			}
		}
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

// deliver pushes msg to the leader and to each follower independently
// (bypassing the inner Broadcast), and clears the staleness of every
// follower that receives a CW-bearing message — which always carries
// the current W.
func (e *FaultyEnv) deliver(msg search.Message) {
	leader := e.inner.LeaderID()
	for i := 0; i < e.inner.NumNodes(); i++ {
		if i == leader {
			e.inner.DeliverTo(i, msg) // the leader never misses its own broadcast
			continue
		}
		if e.cfg.DropProb > 0 && e.drop.Float64() < e.cfg.DropProb {
			e.Stats.Dropped++
			continue
		}
		e.inner.DeliverTo(i, msg)
		if cwMessage(msg) {
			delete(e.stale, i)
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
			p = (math.Abs(p) + 1) * outlierScale
		} else {
			p = -(math.Abs(p) + 1) * outlierScale
		}
	}
	return p, nil
}

// LastBroadcastAcked implements search.AckEnv: true when every follower
// holds the current W — acknowledgement is cumulative across re-sends,
// so a follower that caught an earlier copy counts as acked.
func (e *FaultyEnv) LastBroadcastAcked() bool { return len(e.stale) == 0 }

// Failover implements search.FailoverEnv: it promotes the proposed node
// (modulo the network size, and never the crashed leader itself) and
// clears the crashed flag so the deputy's measurements succeed.
func (e *FaultyEnv) Failover(proposed int) (int, error) {
	if !e.leaderDown {
		return 0, errors.New("faults: failover requested but the leader is up")
	}
	n := e.inner.NumNodes()
	old := e.inner.LeaderID()
	deputy := proposed % n
	if deputy == old {
		deputy = (deputy + 1) % n
	}
	if deputy == old {
		return 0, errors.New("faults: no other node to promote")
	}
	if err := e.inner.SetLeader(deputy); err != nil {
		return 0, err
	}
	// The old leader's station is now a follower that has not yet heard
	// from the deputy: stale until a Ready reaches it. The deputy no
	// longer receives broadcasts, so it leaves the acknowledgement set.
	e.stale[old] = true
	delete(e.stale, deputy)
	e.leaderDown = false
	e.cfg.LeaderCrashAfter = 0 // the deputy does not inherit the crash plan
	e.Stats.Failovers++
	return deputy, nil
}

var (
	_ search.Env         = (*FaultyEnv)(nil)
	_ search.AckEnv      = (*FaultyEnv)(nil)
	_ search.FailoverEnv = (*FaultyEnv)(nil)
)
