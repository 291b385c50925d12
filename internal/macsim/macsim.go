// Package macsim is an event-driven simulator of saturated IEEE 802.11 DCF
// in a single collision domain (every node hears every other node). It is
// this reproduction's stand-in for the paper's NS-2 experiments.
//
// The simulator implements exactly the mechanism Bianchi's Markov chain
// abstracts — per-node binary exponential backoff over a configurable
// initial contention window, slotted contention, and channel holds of Ts
// (success) or Tc (collision) — so its measured per-node transmission and
// collision probabilities converge to the analytic model's fixed point.
// Where the analytic model is a mean-field approximation (heterogeneous
// profiles), the simulator is exact up to sampling noise, which is what
// makes it a meaningful validation target.
//
// Mechanics per event:
//
//  1. Advance time by the minimum backoff counter times sigma (idle slots).
//  2. Every node whose counter hit zero transmits.
//  3. One transmitter: success (channel busy Ts; node resets to stage 0).
//     Several: collision (busy Tc; each transmitter doubles its stage up
//     to the cap m) — then all transmitters redraw a uniform backoff from
//     their stage's window.
//
// Each busy period counts as one virtual slot, matching the chain's slot
// definition, so measured tau = attempts/slots is directly comparable to
// the analytic τ.
package macsim

import (
	"errors"
	"fmt"
	"math"

	"selfishmac/internal/backoff"
	"selfishmac/internal/rng"
)

// Observer receives one event per busy virtual slot: the slot index (the
// count of virtual slots that elapsed strictly before this busy slot —
// idle slots included) and the set of transmitting nodes in ascending
// node order. The transmitters slice is engine-owned scratch, valid only
// for the duration of the call; observers must copy what they keep.
//
// Observation-stream contract: both engines (event-skipping and
// reference) emit the identical event sequence for the same Config, and
// attaching an observer changes nothing about the simulation — no PRNG
// draws, no float accumulation, no counters — so Results stay
// byte-identical with the observer on, off, or nil. Implementations on
// the hot path must not allocate if the engines' 0-alloc steady-state
// contract is to hold end to end.
type Observer interface {
	OnEvent(slot int64, transmitters []int)
}

// Config parameterises one simulation run: the shared DCF run
// parameters (embedded by value, so the engines read cfg.MaxStage and
// cfg.Timing directly) plus what only the single-hop simulator takes.
type Config struct {
	backoff.Run
	// PerNodeTs optionally overrides the success hold per transmitter
	// (e.g. heterogeneous packet sizes in the rate-control extension).
	// nil uses Timing.Ts for everyone; otherwise length must equal CW's.
	PerNodeTs []float64
	// PerNodeTc optionally gives each node's collision-hold contribution;
	// a collision occupies the channel for the maximum over its
	// transmitters (the longest colliding frame). nil uses Timing.Tc.
	PerNodeTc []float64
	// Observer, when non-nil, is invoked once per busy virtual slot with
	// the slot index and the transmitter set (see the Observer contract).
	// It never alters the simulation.
	Observer Observer
}

// ErrInvalidConfig is wrapped by every error a Config fails validation
// with, so callers can tell a rejected configuration from a failed run
// with errors.Is.
var ErrInvalidConfig = errors.New("macsim: invalid config")

// Validate checks the configuration: the shared run checks
// (backoff.Run.Validate), at least one node, and per-node holds that
// match the profile and are positive and finite.
func (c Config) Validate() error {
	var errs []error
	if len(c.CW) == 0 {
		errs = append(errs, errors.New("no nodes"))
	}
	if err := c.Run.Validate(); err != nil {
		errs = append(errs, err)
	}
	for _, d := range [...]struct {
		name string
		v    []float64
	}{{"PerNodeTs", c.PerNodeTs}, {"PerNodeTc", c.PerNodeTc}} {
		if d.v != nil && len(d.v) != len(c.CW) {
			errs = append(errs, fmt.Errorf("%s has %d entries for %d nodes", d.name, len(d.v), len(c.CW)))
		}
		for i, x := range d.v {
			if !(x > 0 && x <= math.MaxFloat64) {
				errs = append(errs, fmt.Errorf("%s[%d] = %g must be positive and finite", d.name, i, x))
			}
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrInvalidConfig, errors.Join(errs...))
}

// tsOf returns the success hold for transmitter i.
func (c *Config) tsOf(i int) float64 {
	if c.PerNodeTs != nil {
		return c.PerNodeTs[i]
	}
	return c.Timing.Ts
}

// tcOf returns the collision hold for a transmitter set: the longest
// colliding frame occupies the channel.
func (c *Config) tcOf(transmitters []int) float64 {
	if c.PerNodeTc == nil {
		return c.Timing.Tc
	}
	d := c.PerNodeTc[transmitters[0]]
	for _, i := range transmitters[1:] {
		if c.PerNodeTc[i] > d {
			d = c.PerNodeTc[i]
		}
	}
	return d
}

// NodeStats aggregates one node's outcome.
type NodeStats struct {
	// Attempts, Successes and Collisions count transmissions.
	Attempts   int64
	Successes  int64
	Collisions int64
	// PayoffRate is (successes·g − attempts·e)/time, per microsecond —
	// the quantity the paper's search algorithm measures.
	PayoffRate float64
	// Throughput is the node's payload-airtime fraction.
	Throughput float64
	// MeasuredTau is attempts per virtual slot (comparable to analytic τ).
	MeasuredTau float64
	// MeasuredP is collisions/attempts (comparable to analytic p).
	MeasuredP float64
}

// Result is the outcome of a run.
type Result struct {
	// Nodes holds per-node statistics.
	Nodes []NodeStats
	// Time is the simulated time actually covered (>= Config.Duration).
	Time float64
	// Slots is the number of virtual slots (idle + busy).
	Slots int64
	// IdleSlots, SuccessEvents and CollisionEvents decompose the slots.
	IdleSlots       int64
	SuccessEvents   int64
	CollisionEvents int64
	// Throughput is the global payload-airtime fraction.
	Throughput float64
}

// GlobalPayoffRate is the sum of the per-node payoff rates.
func (r *Result) GlobalPayoffRate() float64 {
	var sum float64
	for _, n := range r.Nodes {
		sum += n.PayoffRate
	}
	return sum
}

type nodeState struct {
	cw      int // initial (stage-0) contention window
	stage   int
	counter int
}

// draw sets a fresh uniform backoff counter from the node's current stage.
// The max-stage window cap is applied by the shared backoff helper, so the
// window can never exceed cw << maxStage (stage is also capped on advance).
func (n *nodeState) draw(r *rng.Source, maxStage int) {
	n.counter = backoff.Draw(r, n.cw, n.stage, maxStage)
}

// Run simulates the configured scenario to completion on a fresh Engine,
// which is bit-identical to RunReference: same PRNG draw order, same
// counters, same float accumulation order.
func Run(cfg Config) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(), nil
}

// RunReference simulates the scenario with the original per-event
// min-scan/decrement loop. It is kept verbatim as the pinned semantics of
// the simulator: the differential tests assert Run produces byte-identical
// results, and cmd/bench measures the speedup against it.
func RunReference(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	n := len(cfg.CW)
	nodes := make([]nodeState, n)
	for i := range nodes {
		nodes[i] = nodeState{cw: cfg.CW[i]}
		nodes[i].draw(src, cfg.MaxStage)
	}
	res := &Result{Nodes: make([]NodeStats, n)}
	transmitters := make([]int, 0, n)

	var elapsed float64
	for elapsed < cfg.Duration {
		// Idle until the earliest counter expires.
		minC := nodes[0].counter
		for i := 1; i < n; i++ {
			if nodes[i].counter < minC {
				minC = nodes[i].counter
			}
		}
		if minC > 0 {
			elapsed += float64(minC) * cfg.Timing.Slot
			res.Slots += int64(minC)
			res.IdleSlots += int64(minC)
			for i := range nodes {
				nodes[i].counter -= minC
			}
		}
		transmitters = transmitters[:0]
		for i := range nodes {
			if nodes[i].counter == 0 {
				transmitters = append(transmitters, i)
			}
		}
		// res.Slots currently counts the virtual slots strictly before
		// this busy slot — the same value the fast engine reports as the
		// event's absolute expiry slot.
		if cfg.Observer != nil {
			cfg.Observer.OnEvent(res.Slots, transmitters)
		}
		res.Slots++
		if len(transmitters) == 1 {
			i := transmitters[0]
			res.SuccessEvents++
			res.Nodes[i].Attempts++
			res.Nodes[i].Successes++
			elapsed += cfg.tsOf(i)
			nodes[i].stage = 0
			nodes[i].draw(src, cfg.MaxStage)
		} else {
			res.CollisionEvents++
			elapsed += cfg.tcOf(transmitters)
			for _, i := range transmitters {
				res.Nodes[i].Attempts++
				res.Nodes[i].Collisions++
				if nodes[i].stage < cfg.MaxStage {
					nodes[i].stage++
				}
				nodes[i].draw(src, cfg.MaxStage)
			}
		}
		// In the chain's slot abstraction a busy period is one slot, and
		// bystanders decrement their counter across it (a slot is the
		// interval between consecutive counter decrements). Non-
		// transmitters all hold counter >= 1 here.
		k := 0
		for i := range nodes {
			if k < len(transmitters) && transmitters[k] == i {
				k++
				continue
			}
			nodes[i].counter--
		}
	}

	finalize(&cfg, res, elapsed)
	return res, nil
}

// finalize fills res's time and derived per-node rates from its counters
// after a run covering elapsed microseconds.
func finalize(cfg *Config, res *Result, elapsed float64) {
	res.Time = elapsed
	res.Throughput = 0
	for i := range res.Nodes {
		st := &res.Nodes[i]
		st.PayoffRate = (float64(st.Successes)*cfg.Gain - float64(st.Attempts)*cfg.Cost) / elapsed
		st.Throughput = float64(st.Successes) * cfg.Timing.Payload / elapsed
		if res.Slots > 0 {
			st.MeasuredTau = float64(st.Attempts) / float64(res.Slots)
		}
		if st.Attempts > 0 {
			st.MeasuredP = float64(st.Collisions) / float64(st.Attempts)
		}
		res.Throughput += st.Throughput
	}
}
