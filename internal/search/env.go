package search

import (
	"errors"
	"fmt"
	"math"

	"selfishmac/internal/core"
	"selfishmac/internal/rng"
)

// FaultConfig selects which faults an AnalyticEnv injects and how hard.
// The zero value injects nothing: perfect delivery and exact payoffs.
//
// Every fault stream is seeded independently via rng.DeriveSeed from
// Seed, so any scenario replays byte-identically — enabling one fault
// never shifts another fault's random stream — and a failure seen in
// production or CI can be replayed from its seed alone.
type FaultConfig struct {
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

// Validate rejects unusable configurations; every error wraps
// ErrInvalidConfig.
func (c FaultConfig) Validate() error {
	var errs []error
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropProb", c.DropProb}, {"DupProb", c.DupProb},
		{"OutlierProb", c.OutlierProb}, {"FailProb", c.FailProb},
	} {
		if p.v < 0 || p.v >= 1 || math.IsNaN(p.v) {
			errs = append(errs, fmt.Errorf("%s %g outside [0, 1)", p.name, p.v))
		}
	}
	if c.LeaderCrashAfter < 0 {
		errs = append(errs, fmt.Errorf("negative LeaderCrashAfter %d", c.LeaderCrashAfter))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrInvalidConfig, errors.Join(errs...))
}

// FaultStats counts every broadcast and every injected fault, for
// assertions and reports.
type FaultStats struct {
	Broadcasts        int // messages the protocol sent
	Dropped           int // (message, follower) losses
	Duplicated        int // duplicate deliveries
	Outliers          int // corrupted payoff measurements
	TransientFailures int // measurements that returned an error
	LeaderCrashes     int // leader crash-stops triggered
	Failovers         int // deputy promotions performed
}

// AnalyticEnv is the search's broadcast medium and payoff oracle. It
// measures the leader's payoff from the analytic game model at the
// current (possibly heterogeneous) CW profile. Delivery follows §V.C:
// StartSearch and Ready set every follower's CW, Announce sets every
// node's CW, and the leader never misses its own broadcast.
//
// On top of that it injects the faults its FaultConfig selects:
// per-follower broadcast drop, duplication, payoff outliers, transient
// measurement failures, and crash-stop of the leader mid-search. It
// implements AckEnv and FailoverEnv, so ResilientRun gets
// acknowledgement and failover signals. Not safe for concurrent use
// (neither is the protocol).
type AnalyticEnv struct {
	game   *core.Game
	leader int
	cw     []int
	cfg    FaultConfig

	drop, dup, outlier, fail *rng.Source

	leaderDown   bool
	measurements int

	// Acknowledgement state is cumulative: a follower is stale until it
	// has applied the *current* W, whichever send delivered it.
	curW  int          // W of the latest StartSearch/Ready (0 before any)
	stale map[int]bool // followers that have not yet applied curW

	// Stats tallies every broadcast and every fault injected so far.
	Stats FaultStats
}

// NewAnalyticEnv builds an environment of game.N() nodes, all starting at
// CW w0, with the given leader index and fault model.
func NewAnalyticEnv(game *core.Game, leader, w0 int, faults FaultConfig) (*AnalyticEnv, error) {
	if game == nil {
		return nil, ErrNoEnv
	}
	if leader < 0 || leader >= game.N() {
		return nil, fmt.Errorf("search: leader %d outside [0, %d)", leader, game.N())
	}
	if err := faults.Validate(); err != nil {
		return nil, err
	}
	cw := make([]int, game.N())
	for i := range cw {
		cw[i] = w0
	}
	return &AnalyticEnv{
		game:    game,
		leader:  leader,
		cw:      cw,
		cfg:     faults,
		drop:    rng.New(rng.DeriveSeed(faults.Seed, "faults.drop", 0)),
		dup:     rng.New(rng.DeriveSeed(faults.Seed, "faults.dup", 0)),
		outlier: rng.New(rng.DeriveSeed(faults.Seed, "faults.outlier", 0)),
		fail:    rng.New(rng.DeriveSeed(faults.Seed, "faults.fail", 0)),
		stale:   make(map[int]bool),
	}, nil
}

// Broadcast implements Env: it delivers msg to each follower subject to
// drop, then possibly delivers it a second time.
func (e *AnalyticEnv) Broadcast(msg Message) {
	e.Stats.Broadcasts++

	// A CW-bearing message with a new W opens a new acknowledgement epoch:
	// every follower is stale until some send delivers the new W to it.
	if cwMessage(msg) && msg.W != e.curW {
		e.curW = msg.W
		for i := range e.cw {
			if i != e.leader {
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
func cwMessage(msg Message) bool {
	return msg.Type == StartSearch || msg.Type == Ready
}

// deliver pushes msg to the leader and to each follower independently.
// Announce sets any node's CW, the leader's included: §V.C ends with
// every node that hears the announcement adopting W. StartSearch and
// Ready set a follower's CW and clear its staleness, since they always
// carry the current W.
func (e *AnalyticEnv) deliver(msg Message) {
	for i := range e.cw {
		follower := i != e.leader
		if follower && e.cfg.DropProb > 0 && e.drop.Float64() < e.cfg.DropProb {
			e.Stats.Dropped++
			continue
		}
		switch {
		case msg.Type == Announce:
			e.cw[i] = msg.W
		case cwMessage(msg) && follower:
			e.cw[i] = msg.W
			delete(e.stale, i)
		}
	}
}

// LeaderPayoff implements Env: the leader's exact payoff with itself at
// CW w, subject to leader crash-stop, transient failures, and
// measurement outliers.
func (e *AnalyticEnv) LeaderPayoff(w int) (float64, error) {
	if e.leaderDown {
		return 0, ErrLeaderCrashed
	}
	if e.cfg.LeaderCrashAfter > 0 && e.measurements >= e.cfg.LeaderCrashAfter {
		e.leaderDown = true
		e.Stats.LeaderCrashes++
		return 0, ErrLeaderCrashed
	}
	if e.cfg.FailProb > 0 && e.fail.Float64() < e.cfg.FailProb {
		e.Stats.TransientFailures++
		return 0, fmt.Errorf("search: transient measurement failure at W=%d", w)
	}
	e.cw[e.leader] = w
	us, err := e.game.ProfileUtilities(e.cw)
	if err != nil {
		return 0, err
	}
	p := us[e.leader]
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

// LastBroadcastAcked implements AckEnv: true when every follower holds
// the current W — acknowledgement is cumulative across re-sends, so a
// follower that caught an earlier copy counts as acked.
func (e *AnalyticEnv) LastBroadcastAcked() bool { return len(e.stale) == 0 }

// Failover implements FailoverEnv: it promotes the proposed node (modulo
// the network size, and never the crashed leader itself) and clears the
// crashed flag so the deputy's measurements succeed. The old leader's CW
// keeps its last measured value.
func (e *AnalyticEnv) Failover(proposed int) (int, error) {
	if !e.leaderDown {
		return 0, errors.New("search: failover requested but the leader is up")
	}
	n := len(e.cw)
	if proposed < 0 {
		return 0, fmt.Errorf("search: deputy %d outside [0, %d)", proposed, n)
	}
	old := e.leader
	deputy := proposed % n
	if deputy == old {
		deputy = (deputy + 1) % n
	}
	if deputy == old {
		return 0, errors.New("search: no other node to promote")
	}
	e.leader = deputy
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

// Profile returns a copy of the nodes' current CW values.
func (e *AnalyticEnv) Profile() []int { return append([]int(nil), e.cw...) }

var (
	_ Env         = (*AnalyticEnv)(nil)
	_ AckEnv      = (*AnalyticEnv)(nil)
	_ FailoverEnv = (*AnalyticEnv)(nil)
)
