package multihop

import (
	"fmt"
	"slices"

	"selfishmac/internal/calendar"
	"selfishmac/internal/rng"
	"selfishmac/internal/topology"
)

// fastsim.go is the event-skipping engine behind Simulate. The reference
// loop steps every slot and touches every node per slot even when all of
// them are mid-backoff; this engine tracks, per node, the absolute slot
// at which it will next reach counter zero and act (its fire slot), and
// jumps the clock directly to the minimum fire slot — the next event
// horizon over counter expiries, carrier-sense freezes and pending
// mobility steps. Idle slots are never visited. The minimum is found
// through the event calendar (internal/calendar), a bucket ring over the
// bounded fire-slot horizon: freeze shifts update fire[] only, stale
// calendar entries are repaired when visited, and expired sets come back
// in ascending node order — so event selection costs O(1) amortized per
// calendar touch instead of an O(n) scan per event.
//
// Freeze/resume accounting is carried in the fire slots themselves,
// against one per-node horizon, blocked: the first slot at which the
// node's own transmission and every carrier hold it has heard are over
// (the reference loop's max(busyUntil, txUntil)). A node is blocked at
// slot t while blocked > t.
//
//   - A transmission at slot t that lasts until slot `until` shifts each
//     neighbor's fire slot by the slots it freezes on top of what already
//     blocked it: until - max(blocked, t+1) when positive. (A node
//     counting at t has already decremented there, so its freeze starts
//     at t+1.) The neighbor's blocked horizon then rises to until.
//   - A transmitter redraws counter c at slot t and resumes counting at
//     its blocked horizon as known at the end of the slot — its
//     co-transmitters' carrier holds included — so it fires at
//     blocked + c.
//   - An isolated node (empty adjacency) redraws c at its fire slot t and
//     resumes at t+1, so it fires at t+1+c; carrier freezes from later
//     transmitters in the same slot then shift it like any counting node.
//
// Those rules bound every fire slot by t + maxDur + maxCW - 1, the span
// the ring is sized to, so no entry wraps; a horizon past the ring's
// bucket cap (an extreme CW << MaxStage product) wraps and stays exact.
//
// Mobility steps are applied in catch-up fashion before processing any
// event at or past their due slot, preserving both the step count and
// their order relative to MAC events — the network's own PRNG trajectory
// and final state are identical to the reference. Adjacency comes from
// one place, the topology's Rows: a *topology.Network's rows are its
// adjacency view's, which a mobility step refreshes in place (a patch or
// a bulk refill, whichever the step's churn favours) and which cost
// nothing on a static network after the first snapshot.
//
// Determinism contract: PRNG draws happen in exactly the reference order
// — per event slot, expired nodes act in ascending node order (isolated
// redraw or receiver pick), then transmitters redraw in ascending order —
// so Simulate and SimulateReference produce byte-identical SimResults.
//
// The state lives in simState so the engine is reusable: init sizes
// every buffer, reset restores the initial trajectory state for a new
// seed, and run executes one simulation into the state-owned result.
// Simulate builds a state per call; the exported Simulator
// (simulator.go) exposes the explicit lifecycle for replication loops.
type simState struct {
	mobile *topology.Network // nil unless the run moves the network
	cfg    SimConfig
	n      int

	// adj is the active adjacency, the topology's Rows, never written by
	// the engine.
	adj [][]int

	src          rng.Source
	nodes        []spatialNode
	fire         []int64       // absolute slot at which the node next acts
	cal          calendar.Ring // fire-slot calendar; entries may lag fire[]
	expired      []int         // scratch: this event's expired nodes, ascending
	transmitters []int
	receivers    []int
	inTx         []bool
	blocked      []int64 // max(busyUntil, txUntil): first slot the node may count again
	res          SimResult

	tsSlots, tcSlots   int64
	totalSlots         int64
	mobilityEverySlots int64
	nextMobility       int64
}

// init binds the state to a network and config, sizes every buffer, and
// resets for cfg.Seed. cfg must already be validated; cfg.CW is
// retained, so callers must pass an owned slice.
func (st *simState) init(nw Topology, mobile *topology.Network, cfg SimConfig) {
	n := nw.N()
	st.mobile, st.cfg, st.n = mobile, cfg, n
	st.nodes = make([]spatialNode, n)
	st.fire = make([]int64, n)
	st.expired = make([]int, 0, n)
	st.transmitters = make([]int, 0, n)
	st.receivers = make([]int, n)
	st.inTx = make([]bool, n)
	st.blocked = make([]int64, n)
	st.res.Nodes = make([]NodeStats, n)
	st.adj = nw.Rows()

	st.tsSlots = int64(cfg.Timing.SlotsCeil(cfg.Timing.Ts))
	st.tcSlots = int64(cfg.Timing.SlotsCeil(cfg.Timing.Tc))
	st.totalSlots = int64(cfg.Duration / cfg.Timing.Slot)
	if st.totalSlots < 1 {
		st.totalSlots = 1
	}
	if cfg.MobilityEvery > 0 {
		st.mobilityEverySlots = int64(cfg.MobilityEvery / cfg.Timing.Slot)
		if st.mobilityEverySlots < 1 {
			st.mobilityEverySlots = 1
		}
	}
	st.reset(cfg.Seed)
}

// calSpan returns the fire-slot horizon for the current config: no fire
// slot is ever filed more than maxDur + maxCW - 1 slots past the current
// event slot (see the freeze/resume rules above). Windows past the
// ring's bucket cap report the cap without overflowing.
func (st *simState) calSpan() int64 {
	maxCW := 0
	for _, w := range st.cfg.CW {
		maxCW = max(maxCW, w)
	}
	if maxCW > calendar.MaxBuckets {
		return calendar.MaxBuckets
	}
	return int64(maxCW)<<uint(st.cfg.MaxStage) + max(st.tsSlots, st.tcSlots)
}

// reset restores the initial trajectory state for the given seed: PRNG
// re-seeded, backoff states redrawn in node order (exactly like the
// reference loop's setup), result cleared. It allocates nothing in
// steady state.
func (st *simState) reset(seed uint64) {
	st.cfg.Seed = seed
	st.src.Reseed(seed)
	for i := range st.nodes {
		st.nodes[i] = spatialNode{cw: st.cfg.CW[i]}
		st.nodes[i].draw(&st.src, st.cfg.MaxStage)
		st.fire[i] = int64(st.nodes[i].counter)
		st.inTx[i] = false
		st.blocked[i] = 0
	}
	st.cal.Init(st.n, st.calSpan())
	st.cal.Rebuild(st.fire)
	for i := range st.res.Nodes {
		st.res.Nodes[i] = NodeStats{}
	}
	st.res.Time, st.res.Slots, st.res.HiddenFraction = 0, 0, 0
	st.nextMobility = -1
	if st.mobilityEverySlots > 0 {
		st.nextMobility = st.mobilityEverySlots
	}
}

// stepMobility advances the mobility model by one MobilityEvery interval
// through the network's adjacency view, which refreshes the rows in
// place.
func (st *simState) stepMobility() error {
	if _, err := st.mobile.AdjacencyView().StepDelta(st.cfg.MobilityEvery / 1e6); err != nil {
		return err
	}
	st.adj = st.mobile.Rows()
	return nil
}

// run executes the simulation to completion and finalises the state-owned
// result. On a static topology it performs no allocations.
func (st *simState) run() (*SimResult, error) {
	cfg := &st.cfg
	nodes, fire := st.nodes, st.fire
	receivers, inTx, blocked := st.receivers, st.inTx, st.blocked
	adj := st.adj
	res := &st.res
	totalSlots := st.totalSlots
	nextMobility := st.nextMobility
	var totalAttempts, totalHidden int64

	for {
		// Jump to the next event horizon: the calendar advances to the
		// first slot holding a node whose true fire slot expires there,
		// repairing freeze-shifted (stale) entries along the way, and
		// hands back the expired set in ascending node order — the order
		// the reference loop acts them in.
		var t int64
		expired := st.expired[:0]
		t, expired = st.cal.Next(fire, totalSlots, expired)
		if t >= totalSlots {
			// No further MAC event inside the run; apply the mobility
			// steps the reference loop would still have performed.
			for nextMobility > 0 && nextMobility < totalSlots {
				if err := st.stepMobility(); err != nil {
					return nil, fmt.Errorf("multihop: mobility step: %w", err)
				}
				adj = st.adj
				nextMobility += st.mobilityEverySlots
			}
			break
		}
		// Mobility catch-up: one step per due point, all before phase 1
		// of this slot — exactly when the reference would have stepped.
		for nextMobility > 0 && t >= nextMobility {
			if err := st.stepMobility(); err != nil {
				return nil, fmt.Errorf("multihop: mobility step: %w", err)
			}
			adj = st.adj
			nextMobility += st.mobilityEverySlots
		}

		// Phase 1: expired nodes act in ascending node order.
		transmitters := st.transmitters[:0]
		for _, i := range expired {
			if len(adj[i]) == 0 {
				// Isolated node: redraw and stay in backoff. It resumes
				// counting at t+1 (it cannot be blocked here, or it
				// would not have fired).
				nodes[i].draw(&st.src, cfg.MaxStage)
				fire[i] = t + 1 + int64(nodes[i].counter)
				st.cal.File(fire[i], int32(i))
				continue
			}
			transmitters = append(transmitters, i)
			receivers[i] = adj[i][st.src.Intn(len(adj[i]))]
		}
		if len(transmitters) == 0 {
			continue
		}
		if cfg.Observer != nil {
			cfg.Observer.OnEvent(t, transmitters)
		}

		for _, i := range transmitters {
			inTx[i] = true
		}

		// Phase 2: resolve outcomes at the receivers (identical to the
		// reference), threading freeze shifts into neighbors' fire slots.
		for _, i := range transmitters {
			r := receivers[i]
			stn := &res.Nodes[i]
			stn.Attempts++
			totalAttempts++

			ok := true
			hidden := false
			if inTx[r] || blocked[r] > t {
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
			dur := st.tcSlots
			if ok {
				stn.Successes++
				nodes[i].stage = 0
				dur = st.tsSlots
			} else {
				stn.Collisions++
				if hidden {
					stn.HiddenCollisions++
					totalHidden++
				}
				if nodes[i].stage < cfg.MaxStage {
					nodes[i].stage++
				}
			}
			until := t + dur
			blocked[i] = max(blocked[i], until)
			nodes[i].draw(&st.src, cfg.MaxStage)
			// Carrier sensing: everyone in range of the transmitter
			// holds; shift fire slots by the slots the new hold freezes
			// on top of what already blocked them. A co-transmitter's
			// shift is harmless: it is off the calendar until the
			// re-file below overwrites its fire slot. Both updates are
			// max selects, not branches: success and collision holds
			// mix, so a branch on either would mispredict.
			for _, k := range adj[i] {
				b := blocked[k]
				fire[k] += max(until-max(b, t+1), 0)
				blocked[k] = max(b, until)
			}
		}
		// Transmitters resume counting with their fresh counter once
		// their own transmission and every carrier hold known by the end
		// of the slot are over.
		for _, i := range transmitters {
			fire[i] = blocked[i] + int64(nodes[i].counter)
			st.cal.File(fire[i], int32(i))
			inTx[i] = false
		}
	}
	st.adj = adj
	st.nextMobility = nextMobility

	res.Slots = totalSlots
	res.Time = float64(totalSlots) * cfg.Timing.Slot
	for i := range res.Nodes {
		stn := &res.Nodes[i]
		stn.PayoffRate = (float64(stn.Successes)*cfg.Gain - float64(stn.Attempts)*cfg.Cost) / res.Time
	}
	if totalAttempts > 0 {
		res.HiddenFraction = float64(totalHidden) / float64(totalAttempts)
	}
	return res, nil
}

// simulateFast is the one-shot entry behind Simulate: a fresh state per
// call, supporting mobility. The result is copied out of the state so
// the caller owns it outright and the state's buffers are not retained.
func simulateFast(nw Topology, mobile *topology.Network, cfg SimConfig) (*SimResult, error) {
	var st simState
	st.init(nw, mobile, cfg)
	res, err := st.run()
	if err != nil {
		return nil, err
	}
	return &SimResult{
		Nodes:          append([]NodeStats(nil), res.Nodes...),
		Time:           res.Time,
		Slots:          res.Slots,
		HiddenFraction: res.HiddenFraction,
	}, nil
}
