// Package multihop implements the paper's Section VI: the MAC game G' on
// multi-hop wireless mobile ad hoc networks.
//
// It contains two cooperating pieces:
//
//   - A slot-synchronous spatial DCF simulator with carrier sensing and
//     hidden-terminal collisions (this file). Unlike the single-hop
//     simulator, channel state is local: a node freezes its backoff while
//     any neighbor transmits, and a transmission i→r fails if any other
//     node in range of r — including nodes hidden from i — transmits
//     concurrently. The simulator measures the hidden-node degradation
//     factor p_hn that the paper's adapted utility function uses.
//
//   - The game layer (game.go): per-node local efficient-NE CW selection,
//     TFT convergence to Wm = min_i W_i (Theorem 3), and the
//     quasi-optimality measurements of Section VII.B.
package multihop

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"selfishmac/internal/backoff"
	"selfishmac/internal/rng"
	"selfishmac/internal/topology"
)

// Topology is the read view of a network the spatial simulator needs:
// its size and its neighbor rows. *topology.Network implements it (the
// rows are its adjacency view's); the churn mask and test fixtures
// substitute fixed graphs.
type Topology interface {
	// N is the node count.
	N() int
	// Rows returns every node's neighbor list, ascending. The rows are
	// owned by the topology and read-only to the caller; they stay valid
	// until the topology next moves (or, for the churn mask, next
	// refilters).
	Rows() [][]int
}

// SimConfig parameterises one spatial simulation run: the shared DCF
// run parameters (embedded by value, so the engine reads cfg.MaxStage and
// cfg.Timing directly; the paper's multi-hop analysis uses RTS/CTS
// timing) plus the mobility period only this simulator takes.
type SimConfig struct {
	backoff.Run
	// MobilityEvery, when positive, advances the random-waypoint model
	// every MobilityEvery microseconds of MAC time, by that same span of
	// mobility time, and refreshes the adjacency. The paper's scenario is
	// slow (max 5 m/s), so the topology changes on a much slower
	// timescale than backoff. Zero keeps the topology fixed for the run.
	MobilityEvery float64
}

// ErrInvalidSimConfig is wrapped by every error a SimConfig fails
// validation with, so callers can tell a rejected configuration from a
// failed run with errors.Is.
var ErrInvalidSimConfig = errors.New("multihop: invalid sim config")

// Validate checks the configuration against a network of n nodes: one
// window per node, plus the checks of check.
func (c SimConfig) Validate(n int) error {
	if len(c.CW) != n {
		return c.check(fmt.Errorf("CW profile has %d entries for %d nodes", len(c.CW), n))
	}
	return c.check(nil)
}

// check joins profileErr with the shared run checks
// (backoff.Run.Validate) and the mobility period's, under
// ErrInvalidSimConfig. The period, like the duration, must be finite and
// fit backoff.FitsSlots.
func (c SimConfig) check(profileErr error) error {
	runErr := c.Run.Validate()
	var mobErr error
	if !(c.MobilityEvery >= 0 && c.MobilityEvery <= math.MaxFloat64) {
		mobErr = fmt.Errorf("MobilityEvery %g must be non-negative and finite", c.MobilityEvery)
	} else if c.Timing.Slot > 0 && !backoff.FitsSlots(c.MobilityEvery, c.Timing.Slot) {
		mobErr = fmt.Errorf("MobilityEvery %g spans 2^62 or more slots of %g", c.MobilityEvery, c.Timing.Slot)
	}
	if err := errors.Join(profileErr, runErr, mobErr); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidSimConfig, err)
	}
	return nil
}

// mobileOf checks cfg against the topology and returns the network to
// move when cfg enables mobility (nil otherwise). *topology.Network is
// the only topology that moves.
func mobileOf(nw Topology, cfg SimConfig) (*topology.Network, error) {
	if err := cfg.Validate(nw.N()); err != nil {
		return nil, err
	}
	if cfg.MobilityEvery == 0 {
		return nil, nil
	}
	mobile, ok := nw.(*topology.Network)
	if !ok {
		return nil, errors.New("multihop: MobilityEvery set but the topology is immobile")
	}
	return mobile, nil
}

// NodeStats aggregates one node's spatial-simulation outcome.
type NodeStats struct {
	// Attempts, Successes, Collisions count this node's transmissions.
	Attempts   int64
	Successes  int64
	Collisions int64
	// HiddenCollisions counts failures caused *only* by transmitters the
	// sender could not sense (the hidden-terminal component).
	HiddenCollisions int64
	// PayoffRate is (successes·g − attempts·e)/time per microsecond.
	PayoffRate float64
}

// SimResult is the outcome of a spatial run.
type SimResult struct {
	// Nodes holds per-node statistics.
	Nodes []NodeStats
	// Time is the simulated time in microseconds.
	Time float64
	// Slots is the number of global slots stepped.
	Slots int64
	// HiddenFraction is total hidden-terminal losses over total attempts.
	HiddenFraction float64
}

// GlobalPayoffRate sums the per-node payoff rates.
func (r *SimResult) GlobalPayoffRate() float64 {
	var sum float64
	for _, n := range r.Nodes {
		sum += n.PayoffRate
	}
	return sum
}

type spatialNode struct {
	cw        int
	stage     int
	counter   int
	busyUntil int64 // first slot at which the local channel is idle again
	txUntil   int64 // first slot at which this node's own tx is done
}

// draw sets a fresh uniform backoff counter. The shared helper caps the
// window at cw << maxStage — previously this defensive cap existed only
// in macsim; the stage is capped on advance, so behavior is unchanged,
// but the invariant now holds for any state.
func (n *spatialNode) draw(r *rng.Source, maxStage int) {
	n.counter = backoff.Draw(r, n.cw, n.stage, maxStage)
}

// Simulate runs the spatial DCF over the network's *current* topology
// snapshot (advancing mobility every MobilityEvery microseconds when
// configured; the network is mutated in that case and must be a
// *topology.Network).
//
// It uses the event-skipping engine (fastsim.go), which jumps the slot
// clock directly to the next fire slot instead of stepping idle slots.
// Results, PRNG consumption and mobility stepping are bit-identical to
// SimulateReference; the differential tests pin this.
func Simulate(nw Topology, cfg SimConfig) (*SimResult, error) {
	mobile, err := mobileOf(nw, cfg)
	if err != nil {
		return nil, err
	}
	return simulateFast(nw, mobile, cfg)
}

// SimulateReference runs the spatial DCF with the original slot-by-slot
// loop, advancing time one slot at a time. It is kept as the pinned
// semantics of the simulator: the differential tests assert Simulate
// produces byte-identical results, and cmd/bench measures the speedup
// against it. On a mobile network it rebuilds the adjacency from scratch
// after every step, so it is also the oracle for the fast engine's
// in-place view updates.
func SimulateReference(nw Topology, cfg SimConfig) (*SimResult, error) {
	mobile, err := mobileOf(nw, cfg)
	if err != nil {
		return nil, err
	}
	n := nw.N()
	src := rng.New(cfg.Seed)
	nodes := make([]spatialNode, n)
	for i := range nodes {
		nodes[i] = spatialNode{cw: cfg.CW[i]}
		nodes[i].draw(src, cfg.MaxStage)
	}
	adj := nw.Rows()
	// After a mobility step the oracle rebuilds into its own rows, never
	// into the view's, so it stays independent of the view's patching.
	var own [][]int

	res := &SimResult{Nodes: make([]NodeStats, n)}
	tsSlots := int64(cfg.Timing.SlotsCeil(cfg.Timing.Ts))
	tcSlots := int64(cfg.Timing.SlotsCeil(cfg.Timing.Tc))
	totalSlots := int64(cfg.Duration / cfg.Timing.Slot)
	if totalSlots < 1 {
		totalSlots = 1
	}
	var nextMobility int64 = -1
	var mobilityEverySlots int64
	if cfg.MobilityEvery > 0 {
		mobilityEverySlots = int64(cfg.MobilityEvery / cfg.Timing.Slot)
		if mobilityEverySlots < 1 {
			mobilityEverySlots = 1
		}
		nextMobility = mobilityEverySlots
	}

	transmitters := make([]int, 0, n)
	receivers := make([]int, n)
	inTx := make([]bool, n)
	var totalAttempts, totalHidden int64

	for t := int64(0); t < totalSlots; t++ {
		if nextMobility > 0 && t >= nextMobility {
			// Advance the waypoint model by the elapsed MAC time and
			// refresh the adjacency snapshot.
			if err := mobile.Step(cfg.MobilityEvery / 1e6); err != nil {
				return nil, fmt.Errorf("multihop: mobility step: %w", err)
			}
			own = mobile.AdjacencyInto(own)
			adj = own
			nextMobility += mobilityEverySlots
		}

		// Phase 1: who starts transmitting this slot?
		transmitters = transmitters[:0]
		for i := range nodes {
			nd := &nodes[i]
			if nd.txUntil > t || nd.busyUntil > t {
				continue // transmitting or sensing a busy channel
			}
			if nd.counter > 0 {
				nd.counter--
				continue
			}
			if len(adj[i]) == 0 {
				// Isolated node: nothing to send to; stay in backoff.
				nd.draw(src, cfg.MaxStage)
				continue
			}
			transmitters = append(transmitters, i)
			receivers[i] = adj[i][src.Intn(len(adj[i]))]
		}
		if len(transmitters) == 0 {
			continue
		}

		for _, i := range transmitters {
			inTx[i] = true
		}

		// Phase 2: resolve outcomes at the receivers.
		for _, i := range transmitters {
			r := receivers[i]
			st := &res.Nodes[i]
			st.Attempts++
			totalAttempts++

			ok := true
			hidden := false
			if inTx[r] || nodes[r].busyUntil > t || nodes[r].txUntil > t {
				// Receiver deaf: transmitting itself or in a busy locale.
				ok = false
			}
			if ok {
				for _, j := range adj[r] {
					if j == i || !inTx[j] {
						continue
					}
					ok = false
					if _, linked := slices.BinarySearch(adj[i], j); !linked {
						hidden = true // the interferer was invisible to i
					}
				}
			}
			dur := tcSlots
			if ok {
				st.Successes++
				nodes[i].stage = 0
				dur = tsSlots
			} else {
				st.Collisions++
				if hidden {
					st.HiddenCollisions++
					totalHidden++
				}
				if nodes[i].stage < cfg.MaxStage {
					nodes[i].stage++
				}
			}
			nodes[i].txUntil = t + dur
			nodes[i].draw(src, cfg.MaxStage)
			// Carrier sensing: everyone in range of the transmitter holds.
			for _, k := range adj[i] {
				if until := t + dur; nodes[k].busyUntil < until {
					nodes[k].busyUntil = until
				}
			}
		}
		for _, i := range transmitters {
			inTx[i] = false
		}
	}

	res.Slots = totalSlots
	res.Time = float64(totalSlots) * cfg.Timing.Slot
	for i := range res.Nodes {
		st := &res.Nodes[i]
		st.PayoffRate = (float64(st.Successes)*cfg.Gain - float64(st.Attempts)*cfg.Cost) / res.Time
	}
	if totalAttempts > 0 {
		res.HiddenFraction = float64(totalHidden) / float64(totalAttempts)
	}
	return res, nil
}
