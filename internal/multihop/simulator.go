package multihop

import "errors"

// Simulator is the reusable New / Reset(seed) / Run lifecycle over the
// spatial event-skipping engine: construction allocates every buffer once
// (node state, fire slots, scratch sets, the result), after which
// Reset+Run pairs execute at zero steady-state allocations. It exists for
// replication loops (internal/replicate), which previously paid the full
// Simulate setup cost — including an adjacency-list snapshot — on every
// replication.
//
// Results are bit-identical to Simulate with the same config and seed;
// the differential tests pin this.
//
// Mobility is not supported: a mobile topology is mutated by the run, so
// replaying it under a new seed would start from a moved network rather
// than the configured one. Use Simulate for mobile scenarios. The
// topology's Rows are read once, at construction, so it must not move
// while the simulator is in use.
//
// A Simulator is not safe for concurrent use; give each goroutine its
// own (replicate.Run's factory does exactly that).
type Simulator struct {
	st simState
}

// NewSimulator validates cfg against the network and builds a reusable
// simulator bound to the network's current topology snapshot. The
// simulator deep-copies cfg.CW, so the caller may reuse or mutate it.
func NewSimulator(nw Topology, cfg SimConfig) (*Simulator, error) {
	if err := cfg.Validate(nw.N()); err != nil {
		return nil, err
	}
	if cfg.MobilityEvery > 0 {
		return nil, errors.New("multihop: Simulator does not support mobility; use Simulate")
	}
	cfg.CW = append([]int(nil), cfg.CW...)
	s := &Simulator{}
	s.st.init(nw, nil, cfg)
	return s, nil
}

// Reset restores the initial state for a new seed. The next Run simulates
// the configured network and CW profile under this seed, exactly as a
// fresh Simulate would. It allocates nothing.
func (s *Simulator) Reset(seed uint64) {
	s.st.reset(seed)
}

// Run executes the simulation. The returned SimResult is owned by the
// simulator and reused: it is valid until the next Reset or Run. The
// lifecycle is always Reset(seed) then Run.
func (s *Simulator) Run() (*SimResult, error) {
	return s.st.run()
}
