package macsim

import (
	"fmt"
	"math"

	"selfishmac/internal/backoff"
	"selfishmac/internal/calendar"
	"selfishmac/internal/rng"
)

// Engine is the event-skipping simulator behind Run, with a reusable
// NewEngine(cfg) / Reset(seed) / Run() lifecycle: construction allocates
// everything once (calendar, per-node state, result slots), after which
// Reset + Run pairs run at zero allocations. Replication loops
// (internal/replicate) and the daemon use it to skip Run's setup.
//
// It replaces the reference loop's per-event O(n) work — min-scan over
// counters, counter decrement for every node, transmitter collection
// scan — with a global virtual-slot clock and a calendar of per-node
// absolute expiry slots (internal/calendar), making each event O(k) for
// k transmitters plus a bitmap scan over idle slots.
//
// The key observation making expiries absolute is that in the reference
// loop a busy period costs every bystander exactly one counter decrement
// (a virtual slot), while the clock also advances by one virtual slot —
// so a non-transmitter's absolute expiry slot never changes across a busy
// event. Only transmitters redraw: their new expiry is the event slot + 1
// (the busy virtual slot) + the fresh counter.
//
// The calendar is sized to the stage-0 horizon, the largest initial
// window: that covers every draw of a fresh run, and backed-off draws
// past it wrap the ring and are re-filed once per wrap on the way.
//
// Determinism contract: the engine consumes the PRNG in exactly the
// reference order (initial draws in node order; per event, the single
// successful transmitter or all colliding transmitters in ascending node
// order), accumulates elapsed time in the same order with the same
// values, and computes identical statistics. The differential tests pin
// byte-identical Results against RunReference.
//
// An Engine is not safe for concurrent use; give each goroutine its own.
type Engine struct {
	cfg Config // owned copy; CW is engine-owned, PerNodeTs/Tc live in ts/tc

	// Per-node state.
	stage  []int
	expiry []int64   // absolute virtual slot at which the node transmits
	ts     []float64 // success hold per node (PerNodeTs or Timing.Ts)
	tc     []float64 // collision-hold contribution (PerNodeTc or Timing.Tc)

	cal          calendar.Ring
	src          rng.Source
	transmitters []int
	res          Result
}

// NewEngine validates cfg and builds an engine reset to cfg.Seed. The
// engine copies the config's slices, so the caller may reuse or mutate
// them.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("macsim: invalid config: %w", err)
	}
	n := len(cfg.CW)
	e := &Engine{
		cfg:          cfg,
		stage:        make([]int, n),
		expiry:       make([]int64, n),
		ts:           make([]float64, n),
		tc:           make([]float64, n),
		transmitters: make([]int, 0, n),
	}
	e.cfg.CW = append([]int(nil), cfg.CW...)
	e.cfg.PerNodeTs, e.cfg.PerNodeTc = nil, nil
	maxCW0 := 0
	for i, w := range cfg.CW {
		maxCW0 = max(maxCW0, w)
		e.ts[i], e.tc[i] = cfg.Timing.Ts, cfg.Timing.Tc
	}
	copy(e.ts, cfg.PerNodeTs) // a nil override copies nothing
	copy(e.tc, cfg.PerNodeTc)
	e.cal.Init(n, int64(maxCW0))
	e.res.Nodes = make([]NodeStats, n)
	e.Reset(cfg.Seed)
	return e, nil
}

// Reset re-seeds the engine in place: the next Run simulates the
// configuration under the given seed, exactly as a fresh Run would. It
// allocates nothing.
func (e *Engine) Reset(seed uint64) {
	e.src.Reseed(seed)
	e.res = Result{Nodes: e.res.Nodes}
	clear(e.res.Nodes)
	// Initial draws in node order, exactly like the reference loop.
	for i := range e.expiry {
		e.stage[i] = 0
		e.expiry[i] = int64(backoff.Draw(&e.src, e.cfg.CW[i], 0, e.cfg.MaxStage))
	}
	e.cal.Rebuild(e.expiry)
}

// enqueue draws a fresh backoff for node i at virtual slot cur and files
// it in the calendar.
func (e *Engine) enqueue(i int, cur int64) {
	slot := cur + int64(backoff.Draw(&e.src, e.cfg.CW[i], e.stage[i], e.cfg.MaxStage))
	e.expiry[i] = slot
	e.cal.File(slot, int32(i))
}

// Run executes the simulation to completion. The returned Result is
// owned by the engine and reused: it is valid until the next Reset or
// Run. Call Reset(seed) before every Run after the first.
func (e *Engine) Run() *Result {
	cfg := &e.cfg
	res := &e.res
	var elapsed float64
	var cur int64        // current virtual slot
	tx := e.transmitters // holds n, so Next never reallocates it

	for elapsed < cfg.Duration {
		// Every node is filed, so the calendar always has a next event.
		var emin int64
		emin, tx = e.cal.Next(e.expiry, math.MaxInt64, tx[:0])
		if minC := emin - cur; minC > 0 {
			elapsed += float64(minC) * cfg.Timing.Slot
			res.Slots += minC
			res.IdleSlots += minC
		}
		// emin == res.Slots here (idle advance above restores the
		// invariant), so both engines report identical event slots.
		if cfg.Observer != nil {
			cfg.Observer.OnEvent(emin, tx)
		}
		res.Slots++
		cur = emin + 1
		if len(tx) == 1 {
			i := tx[0]
			res.SuccessEvents++
			res.Nodes[i].Attempts++
			res.Nodes[i].Successes++
			elapsed += e.ts[i]
			e.stage[i] = 0
			e.enqueue(i, cur)
		} else {
			res.CollisionEvents++
			d := e.tc[tx[0]] // longest colliding frame holds the channel
			for _, i := range tx[1:] {
				if e.tc[i] > d {
					d = e.tc[i]
				}
			}
			elapsed += d
			for _, i := range tx {
				res.Nodes[i].Attempts++
				res.Nodes[i].Collisions++
				if e.stage[i] < cfg.MaxStage {
					e.stage[i]++
				}
				e.enqueue(i, cur)
			}
		}
	}
	finalize(cfg, res, elapsed)
	return res
}
