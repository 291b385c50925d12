package multihop

import (
	"fmt"
	"math"
	"slices"

	"selfishmac/internal/rng"
)

// ChurnConfig models node churn — stations leaving and rejoining the
// network — during a multi-hop repeated-game run. A departed node is cut
// out of the topology (no links, no transmissions, no observations by or
// of it); on rejoin it resumes with its strategy state intact, exactly
// like a station coming back into radio range.
type ChurnConfig struct {
	// Seed drives the churn stream (derived via rng.DeriveSeed, so churn
	// draws never perturb the simulator's stream).
	Seed uint64
	// LeaveProb is the per-active-node, per-stage probability of leaving.
	LeaveProb float64
	// JoinProb is the per-departed-node, per-stage probability of
	// rejoining.
	JoinProb float64
	// MinActive is the floor on simultaneously active nodes; departures
	// that would go below it are suppressed. Zero defaults to 2.
	MinActive int
}

// Validate rejects unusable churn configurations.
func (c ChurnConfig) Validate() error {
	if c.LeaveProb < 0 || c.LeaveProb >= 1 || math.IsNaN(c.LeaveProb) {
		return fmt.Errorf("multihop: LeaveProb %g outside [0, 1)", c.LeaveProb)
	}
	if c.JoinProb < 0 || c.JoinProb > 1 || math.IsNaN(c.JoinProb) {
		return fmt.Errorf("multihop: JoinProb %g outside [0, 1]", c.JoinProb)
	}
	if c.MinActive < 0 {
		return fmt.Errorf("multihop: negative MinActive %d", c.MinActive)
	}
	return nil
}

// churnState tracks which nodes are present and evolves them stage by
// stage from a dedicated deterministic stream.
type churnState struct {
	cfg    ChurnConfig
	src    *rng.Source
	active []bool
	nUp    int
}

func newChurnState(cfg ChurnConfig, n int) *churnState {
	if cfg.MinActive == 0 {
		cfg.MinActive = 2
	}
	if cfg.MinActive > n {
		cfg.MinActive = n
	}
	st := &churnState{
		cfg:    cfg,
		src:    rng.New(rng.DeriveSeed(cfg.Seed, "multihop.churn", 0)),
		active: make([]bool, n),
		nUp:    n,
	}
	for i := range st.active {
		st.active[i] = true
	}
	return st
}

// step evolves membership one stage: active nodes leave with LeaveProb
// (never below MinActive), departed nodes rejoin with JoinProb. Draws are
// made in fixed node order so the trajectory is deterministic.
func (st *churnState) step() {
	for i := range st.active {
		if st.active[i] {
			if st.nUp > st.cfg.MinActive && st.src.Float64() < st.cfg.LeaveProb {
				st.active[i] = false
				st.nUp--
			}
		} else if st.src.Float64() < st.cfg.JoinProb {
			st.active[i] = true
			st.nUp++
		}
	}
}

// maskedTopology presents a base topology with departed nodes removed:
// they keep their index (profiles stay length-n) but have no links, so
// the spatial simulator leaves them idle.
//
// Rows filters the base's rows, keeping each one ascending, into
// buffers the mask owns and reuses across calls. One maskedTopology
// therefore serves every churn stage of an engine run with no per-stage
// adjacency allocations in steady state. The returned structure is valid
// until the next Rows call; a maskedTopology is not safe for concurrent
// use.
//
// The base never moves under a mask: the mask is not a
// *topology.Network, so Simulate rejects mobility on it. An unchanged
// activity mask therefore means an unchanged adjacency, and Rows skips
// the refill outright — so an unchanged-membership stage, or the
// engine-then-simulator double consult within one stage, costs an O(n)
// mask comparison instead of an O(E) refill.
type maskedTopology struct {
	base   Topology
	active []bool
	adj    [][]int // returned view: nil entries for departed/link-less nodes
	bufs   [][]int // per-node filter buffers; capacity persists across refills

	filled   bool   // adj/bufs hold the refill for lastMask
	lastMask []bool // activity mask captured at the last refill
}

func (m *maskedTopology) N() int { return m.base.N() }

func (m *maskedTopology) Rows() [][]int {
	n := m.base.N()
	if len(m.adj) != n {
		m.adj = make([][]int, n)
		m.bufs = make([][]int, n)
	}
	if m.filled && slices.Equal(m.lastMask, m.active) {
		return m.adj
	}
	full := m.base.Rows()
	for i := 0; i < n; i++ {
		if !m.active[i] {
			m.adj[i] = nil // departed: no links
			continue
		}
		buf := m.bufs[i][:0]
		for _, j := range full[i] {
			if m.active[j] {
				buf = append(buf, j)
			}
		}
		m.bufs[i] = buf
		if len(buf) == 0 {
			m.adj[i] = nil
		} else {
			m.adj[i] = buf
		}
	}
	m.filled = true
	m.lastMask = append(m.lastMask[:0], m.active...)
	return m.adj
}

var _ Topology = (*maskedTopology)(nil)
