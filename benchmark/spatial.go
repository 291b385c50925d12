package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"time"

	"selfishmac/internal/multihop"
	"selfishmac/internal/topology"
)

// spatialWorkload drives one persistent random-waypoint network through
// a closed loop of multihop.Simulate ops; each op advances the network's
// mobility by opMAC of MAC time in steps of mobilityStep.
type spatialWorkload struct {
	topo   topology.Config
	warmup float64 // seconds of mobility before the first op, in 20 s steps
	opMAC  float64 // MAC time per op, microseconds
	ops    int
	setups int
	seeds  []uint64 // one Simulate seed per op, plus one for the warm-up op
}

const (
	spatialCW    = 26   // uniform contention window: the paper's converged multihop Wm
	mobilityStep = 0.25 // seconds of mobility per step
)

func newSpatial(seed uint64, topo topology.Config, warmup, opMAC float64, ops int) spatialWorkload {
	r := rand.New(rand.NewPCG(seed, 0x5a7a1))
	topo.Seed = r.Uint64()
	seeds := make([]uint64, ops+1)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	return spatialWorkload{topo: topo, warmup: warmup, opMAC: opMAC, ops: ops, setups: 5, seeds: seeds}
}

// simConfig is op k's configuration; k = -1 is the untimed warm-up op.
func (w spatialWorkload) simConfig(k int, cw []int) multihop.SimConfig {
	cfg := multihop.DefaultSimConfig(w.opMAC, w.seeds[k+1])
	cfg.CW = cw
	cfg.MobilityEvery = mobilityStep * 1e6
	return cfg
}

func (w spatialWorkload) uniformCW() []int {
	cw := make([]int, w.topo.N)
	for i := range cw {
		cw[i] = spatialCW
	}
	return cw
}

// network builds the network the ops start from: placement, warm-up
// mobility, then one untimed op so pools and views are warm.
func (w spatialWorkload) network(cw []int) (*topology.Network, error) {
	nw, err := topology.New(w.topo)
	if err != nil {
		return nil, err
	}
	for done := 0.0; done < w.warmup; done += 20 {
		if err := nw.Step(20); err != nil {
			return nil, err
		}
	}
	if _, err := multihop.Simulate(nw, w.simConfig(-1, cw)); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return nw, nil
}

func (w spatialWorkload) run(tr *tracer) (*result, error) {
	res := newResult()
	cw := w.uniformCW()
	var nw *topology.Network
	err := res.timeSetup(w.setups, func() error {
		var err error
		nw, err = w.network(cw)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("spatial set-up: %w", err)
	}

	// Op 0 runs first on twin networks through both engines; the event-
	// skipping engine must match the slot-by-slot reference exactly, and
	// the timed op 0 must match both.
	want, err := w.crossCheck(cw)
	res.attempted++
	if err != nil {
		res.fail("op 0 cross-check: %v", err)
	}

	digest := sha256.New()
	var counts []byte // op's per-node counts, reused so digesting allocates nothing
	var attempts, slots int64
	var simTime time.Duration
	res.before = readUsage()
	for k := 0; k < w.ops; k++ {
		start := time.Now()
		r, err := multihop.Simulate(nw, w.simConfig(k, cw))
		end := time.Now()
		res.attempted++
		res.ops = append(res.ops, end.Sub(start))
		if err != nil {
			res.fail("op %d: %v", k, err)
			continue
		}
		simTime += end.Sub(start)
		var a int64
		counts = counts[:0]
		for _, s := range r.Nodes {
			a += s.Attempts
			for _, c := range [...]int64{s.Attempts, s.Successes, s.Collisions, s.HiddenCollisions} {
				counts = binary.LittleEndian.AppendUint64(counts, uint64(c))
			}
		}
		digest.Write(counts)
		attempts += a
		slots += r.Slots
		if tr != nil {
			tr.record(0, 0, 0, "multihop.Simulate", start, end, map[string]any{"op": k, "attempts": a, "slots": r.Slots})
		}
		if k == 0 && want != nil && !reflect.DeepEqual(r, want) {
			res.fail("op 0: timed result differs from the cross-checked one")
		}
	}
	res.after = readUsage()
	res.digest = hex.EncodeToString(digest.Sum(nil))
	res.finish()

	res.set("sim_events_per_s", float64(attempts)/simTime.Seconds(), "attempts/s")
	res.set("multihop.attempts_per_op", float64(attempts)/float64(w.ops), "count")
	res.set("multihop.slots_per_op", float64(slots)/float64(w.ops), "count")
	if tr != nil {
		if err := w.probe(res, cw, simTime, tr); err != nil {
			res.attempted++
			res.fail("topology probe: %v", err)
		}
	}
	return res, nil
}

// crossCheck runs op 0 on two fresh twins of the timed network, one
// through Simulate and one through SimulateReference, and returns the
// result when they agree.
func (w spatialWorkload) crossCheck(cw []int) (*multihop.SimResult, error) {
	a, err := w.network(cw)
	if err != nil {
		return nil, err
	}
	b, err := w.network(cw)
	if err != nil {
		return nil, err
	}
	fast, err := multihop.Simulate(a, w.simConfig(0, cw))
	if err != nil {
		return nil, err
	}
	ref, err := multihop.SimulateReference(b, w.simConfig(0, cw))
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(fast, ref) {
		return nil, errors.New("Simulate and SimulateReference disagree")
	}
	return fast, nil
}

// probe measures adjacency maintenance on its own: two twins of the
// timed network replay as many mobility steps as the ops took, of the
// same length, one patching through Adjacency.StepDelta and one stepping
// and refilling through Step + AdjacencyInto. Both must end with the
// same neighbor lists.
func (w spatialWorkload) probe(res *result, cw []int, simTime time.Duration, tr *tracer) error {
	a, err := w.network(cw)
	if err != nil {
		return err
	}
	b, err := w.network(cw)
	if err != nil {
		return err
	}
	view := a.AdjacencyView()
	view.Rows()
	rows := b.AdjacencyInto(nil)

	steps := w.ops * int(w.opMAC/(mobilityStep*1e6))
	delta := make([]float64, 0, steps)
	rebuild := make([]float64, 0, steps)
	var deltaTime, rebuildTime time.Duration
	var moved, changed int
	root := tr.id()
	probeStart := time.Now()
	for s := 0; s < steps; s++ {
		t0 := time.Now()
		d, err := view.StepDelta(mobilityStep)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if err := b.Step(mobilityStep); err != nil {
			return err
		}
		rows = b.AdjacencyInto(rows)
		t2 := time.Now()
		deltaTime += t1.Sub(t0)
		rebuildTime += t2.Sub(t1)
		delta = append(delta, float64(t1.Sub(t0))/float64(time.Microsecond))
		rebuild = append(rebuild, float64(t2.Sub(t1))/float64(time.Microsecond))
		moved += len(d.Moved)
		changed += len(d.Gained) + len(d.Lost)
		attrs := map[string]any{"step": s, "moved": len(d.Moved), "gained": len(d.Gained), "lost": len(d.Lost)}
		tr.record(root, 0, root, "topology.step_delta", t0, t1, attrs)
		tr.record(root, 0, root, "topology.rebuild", t1, t2, nil)
	}
	tr.record(root, root, 0, "topology.probe", probeStart, time.Now(), map[string]any{"steps": steps})
	// slices.Equal holds an emptied row equal to a nil one.
	if !slices.EqualFunc(view.Rows(), rows, slices.Equal[[]int]) {
		return fmt.Errorf("patched and rebuilt neighbor lists differ after %d steps", steps)
	}

	res.set("topology.step_delta_us", median(delta), "us")
	res.set("topology.rebuild_us", median(rebuild), "us")
	res.set("topology.delta_share", float64(deltaTime)/float64(simTime), "ratio")
	res.set("topology.rebuild_share", float64(rebuildTime)/float64(simTime), "ratio")
	res.set("topology.moved_per_step", float64(moved)/float64(steps), "count")
	res.set("topology.links_changed_per_step", float64(changed)/float64(steps), "count")
	return nil
}
