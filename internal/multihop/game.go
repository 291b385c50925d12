package multihop

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"selfishmac/internal/bianchi"
	"selfishmac/internal/core"
	"selfishmac/internal/parallel"
	"selfishmac/internal/phy"
	"selfishmac/internal/replicate"
	"selfishmac/internal/topology"
)

// LocalCWSelector computes and caches, per neighborhood size, the CW a
// rational node picks in the multi-hop game G': the efficient NE of the
// local single-hop game among itself and its neighbors (paper Section
// VI.B). The paper's theoretical route (e ≪ g condition) is used, matching
// its numerical results.
type LocalCWSelector struct {
	base  core.Config
	cache map[int]int
}

// NewLocalCWSelector builds a selector from a base configuration whose N
// field is overridden per query.
func NewLocalCWSelector(base core.Config) (*LocalCWSelector, error) {
	probe := base
	probe.N = 2
	if err := probe.Validate(); err != nil {
		return nil, fmt.Errorf("multihop: invalid base config: %w", err)
	}
	return &LocalCWSelector{base: base, cache: make(map[int]int)}, nil
}

// CWFor returns the efficient-NE CW of an nPlayers-node single-hop game.
// For nPlayers < 2 (an isolated node) it returns the 2-player value — the
// most aggressive setting a node would ever rationally pick.
func (s *LocalCWSelector) CWFor(nPlayers int) (int, error) {
	if nPlayers < 2 {
		nPlayers = 2
	}
	if w, ok := s.cache[nPlayers]; ok {
		return w, nil
	}
	cfg := s.base
	cfg.N = nPlayers
	g, err := core.NewGame(cfg)
	if err != nil {
		return 0, err
	}
	ne, err := g.FindPaperNE()
	if err != nil {
		return 0, fmt.Errorf("multihop: local NE for n=%d: %w", nPlayers, err)
	}
	s.cache[nPlayers] = ne.WStar
	return ne.WStar, nil
}

// LocalCWProfile returns each node's initial CW: the efficient NE of its
// local (deg+1)-player game.
func LocalCWProfile(nw *topology.Network, sel *LocalCWSelector) ([]int, error) {
	out := make([]int, nw.N())
	for i := range out {
		w, err := sel.CWFor(nw.Degree(i) + 1)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// ConvergedCW returns Wm = min_i W_i, the CW the whole network converges
// to under TFT (Theorem 3). It panics on an empty profile.
func ConvergedCW(profile []int) int {
	if len(profile) == 0 {
		panic("multihop: empty CW profile")
	}
	minW := profile[0]
	for _, w := range profile[1:] {
		if w < minW {
			minW = w
		}
	}
	return minW
}

// TFTConverge iterates the local TFT update W_i ← min(W_i, min_{j∈N(i)} W_j)
// on the graph until a fixed point or maxStages. It returns the final
// profile, the number of stages used, and whether a fixed point was
// reached. On a connected graph the fixed point is the uniform
// min-profile, reached within the graph diameter.
func TFTConverge(adj [][]int, w0 []int, maxStages int) (final []int, stages int, converged bool) {
	n := len(w0)
	cur := append([]int(nil), w0...)
	next := make([]int, n)
	for s := 0; s < maxStages; s++ {
		changed := false
		for i := 0; i < n; i++ {
			m := cur[i]
			for _, j := range adj[i] {
				if cur[j] < m {
					m = cur[j]
				}
			}
			next[i] = m
			if m != cur[i] {
				changed = true
			}
		}
		cur, next = next, cur
		if !changed {
			return cur, s, true
		}
	}
	return cur, maxStages, false
}

// LocalUniformUtility evaluates the paper's adapted multi-hop utility
// (Section VI.A) for a node whose neighborhood has nPlayers contenders all
// at CW w, with hidden-node survival factor phn:
//
//	u = τ((1−p)·phn·g − e) / T_slot
func LocalUniformUtility(model *bianchi.Model, nPlayers, w int, phn, gain, cost float64) (float64, error) {
	if nPlayers < 1 {
		return 0, fmt.Errorf("multihop: nPlayers = %d must be >= 1", nPlayers)
	}
	sol, err := model.SolveUniform(w, nPlayers)
	if err != nil {
		return 0, err
	}
	return sol.Tau[0] * ((1-sol.P[0])*phn*gain - cost) / sol.Tslot, nil
}

// QuasiOptConfig parameterises the Section VII.B quasi-optimality
// measurement.
type QuasiOptConfig struct {
	// Sim carries the channel and payoff parameters. Sim.CW is ignored
	// (profiles are constructed by the measurement). The measurement runs
	// on a static snapshot: Sim.MobilityEvery must be zero.
	Sim SimConfig
	// Wm is the converged CW under test.
	Wm int
	// SweepMultipliers are the relative common-CW values tried in the
	// sweep. 1.0 (= Wm itself) is implicitly included.
	SweepMultipliers []float64
	// Replicas averages each operating point over at least this many
	// independent seeds (derived deterministically from Sim.Seed) to
	// suppress sampling noise in the per-node ratios. 0 or 1 means one
	// run.
	Replicas int
	// MaxReplicas, when greater than Replicas and RelCITarget is set,
	// enables adaptive precision: each operating point replicates until
	// the CI95 half-width of the global payoff rate drops below
	// RelCITarget of its mean, within [Replicas, MaxReplicas]. Zero (or
	// any value below Replicas) means exactly Replicas runs per point.
	MaxReplicas int
	// RelCITarget is the relative CI95 target for adaptive stopping (see
	// MaxReplicas). Zero disables adaptive stopping.
	RelCITarget float64
	// Workers bounds the goroutines fanned out over a point's replicated
	// simulator runs. 0 or negative means GOMAXPROCS; 1 runs them
	// serially. Results are bit-identical at every worker count — the
	// replication layer (internal/replicate) schedules deterministic
	// rounds and merges moments in index order.
	Workers int
}

// QuasiOptResult reports how close the converged NE is to optimal.
type QuasiOptResult struct {
	// Wm echoes the converged CW.
	Wm int
	// SweptCWs lists the uniform CW values evaluated (including Wm).
	SweptCWs []int
	// PerNodeRatio[i] = payoff of node i at Wm divided by node i's best
	// payoff across the common-CW sweep. This is the paper's "each node
	// gets at least 96% of the maximal local payoff it can get by varying
	// its CW value" — under TFT the whole network follows any change, so
	// the relevant alternative operating points are the uniform ones.
	PerNodeRatio []float64
	// MinPerNodeRatio and MeanPerNodeRatio summarize PerNodeRatio.
	MinPerNodeRatio  float64
	MeanPerNodeRatio float64
	// GlobalAtWm and GlobalMax are the global payoff rates at Wm and at
	// the best uniform CW in the sweep; GlobalRatio their quotient.
	GlobalAtWm  float64
	GlobalMax   float64
	GlobalRatio float64
	// BestGlobalW is the uniform CW attaining GlobalMax.
	BestGlobalW int
	// RepsPerCW[k] is the number of replications actually run for
	// SweptCWs[k] (Replicas unless adaptive stopping ended earlier or
	// later), and GlobalCI95PerCW[k] the CI95 half-width of its global
	// payoff rate.
	RepsPerCW       []int
	GlobalCI95PerCW []float64
}

// MeasureQuasiOptimality runs the paper's Section VII.B experiment on the
// given network: it simulates every uniform CW in the sweep (the converged
// value Wm plus the configured multiples) and reports, per node and
// globally, how little any other common operating point improves on Wm.
// All runs share the configured seed, so comparisons are paired. The
// network is a static snapshot: a config with Sim.MobilityEvery > 0 is
// rejected with an error wrapping ErrInvalidSimConfig.
func MeasureQuasiOptimality(nw *topology.Network, cfg QuasiOptConfig) (*QuasiOptResult, error) {
	return MeasureQuasiOptimalityContext(context.Background(), nw, cfg)
}

// MeasureQuasiOptimalityContext is MeasureQuasiOptimality under a
// context, checked between candidate CWs and at the replication layer's
// round boundaries. A cancelled sweep returns an error wrapping
// ctx.Err(), never a partially filled result.
func MeasureQuasiOptimalityContext(ctx context.Context, nw *topology.Network, cfg QuasiOptConfig) (*QuasiOptResult, error) {
	if cfg.Wm < 1 {
		return nil, fmt.Errorf("multihop: Wm = %d must be >= 1", cfg.Wm)
	}
	if len(cfg.SweepMultipliers) == 0 {
		return nil, errors.New("multihop: empty sweep")
	}
	if cfg.Sim.MobilityEvery > 0 {
		return nil, fmt.Errorf("%w: quasi-optimality runs on a static snapshot, got MobilityEvery %g", ErrInvalidSimConfig, cfg.Sim.MobilityEvery)
	}
	n := nw.N()
	candidates := sweepCWs(cfg.Wm, cfg.SweepMultipliers)

	res := &QuasiOptResult{
		Wm:              cfg.Wm,
		SweptCWs:        candidates,
		PerNodeRatio:    make([]float64, n),
		RepsPerCW:       make([]int, len(candidates)),
		GlobalCI95PerCW: make([]float64, len(candidates)),
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	maxReplicas := cfg.MaxReplicas
	if maxReplicas < replicas {
		maxReplicas = replicas
	}

	// Each candidate CW is one replicated measurement. Replication index
	// — not the candidate — drives the derived seed, so candidates are
	// compared on paired seeds. The replication layer fans the runs over
	// reusable Simulators and can stop adaptively.
	atWm := make([]float64, n)
	best := make([]float64, n)
	mean := make([]float64, n)
	for ci, w := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("multihop: quasi-optimality sweep interrupted at CW %d: %w", w, err)
		}
		plan := replicate.Plan{
			BaseSeed:     cfg.Sim.Seed,
			Stream:       "multihop.quasiopt",
			Metrics:      n + 1,
			Target:       n,
			RelTolerance: cfg.RelCITarget,
			MinReps:      replicas,
			MaxReps:      maxReplicas,
			Workers:      cfg.Workers,
		}
		rres, err := replicate.RunContext(ctx, plan, func() (replicate.Replicator, error) {
			sim := cfg.Sim
			sim.CW = uniformCWProfile(w, n)
			s, err := NewSimulator(nw, sim)
			if err != nil {
				return nil, err
			}
			return quasiOptReplicator{s}, nil
		})
		if err != nil {
			return nil, err
		}
		res.RepsPerCW[ci] = rres.Reps
		res.GlobalCI95PerCW[ci] = rres.CI95(n)
		gp := rres.Mean(n)
		for i := range mean {
			mean[i] = rres.Mean(i)
		}
		if w == cfg.Wm {
			res.GlobalAtWm = gp
			copy(atWm, mean)
		}
		if gp > res.GlobalMax || res.BestGlobalW == 0 {
			res.GlobalMax = gp
			res.BestGlobalW = w
		}
		for i := range best {
			if mean[i] > best[i] {
				best[i] = mean[i]
			}
		}
	}
	for i := range res.PerNodeRatio {
		if best[i] > 0 {
			res.PerNodeRatio[i] = atWm[i] / best[i]
		} else {
			res.PerNodeRatio[i] = 1 // node never earned anything anywhere
		}
	}
	res.MinPerNodeRatio, res.MeanPerNodeRatio = summarizeRatios(res.PerNodeRatio)
	if res.GlobalMax != 0 {
		res.GlobalRatio = res.GlobalAtWm / res.GlobalMax
	}
	return res, nil
}

// quasiOptReplicator adapts a reusable Simulator to replicate.Replicator:
// one replication is Reset(seed)+Run, reported as n per-node payoff rates
// followed by their sum (the global rate, the adaptive-stopping target).
type quasiOptReplicator struct {
	sim *Simulator
}

func (q quasiOptReplicator) Replicate(seed uint64, out []float64) error {
	q.sim.Reset(seed)
	r, err := q.sim.Run()
	if err != nil {
		return err
	}
	var gp float64
	for i := range r.Nodes {
		out[i] = r.Nodes[i].PayoffRate
		gp += r.Nodes[i].PayoffRate
	}
	out[len(r.Nodes)] = gp
	return nil
}

// sweepCWs maps multipliers to distinct integer CW values >= 1, sorted,
// always including wm itself.
func sweepCWs(wm int, multipliers []float64) []int {
	seen := map[int]bool{wm: true}
	out := []int{wm}
	for _, m := range multipliers {
		w := int(float64(wm)*m + 0.5)
		if w < 1 {
			w = 1
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

func summarizeRatios(rs []float64) (minR, meanR float64) {
	if len(rs) == 0 {
		return 1, 1
	}
	minR = rs[0]
	var sum float64
	for _, r := range rs {
		if r < minR {
			minR = r
		}
		sum += r
	}
	return minR, sum / float64(len(rs))
}

// PHNSweep measures the hidden-terminal loss fraction across uniform CW
// values (paper Section VI.A's key approximation: p_hn is roughly
// independent of CW when n is large and CW not too small). It returns one
// HiddenFraction per candidate CW. The sweep points are independent
// simulator runs fanned out over at most `workers` goroutines (0 means
// GOMAXPROCS). The network is a static snapshot: a sim with
// MobilityEvery > 0 is rejected with an error wrapping ErrInvalidSimConfig.
func PHNSweep(nw *topology.Network, sim SimConfig, cws []int, workers int) ([]float64, error) {
	return PHNSweepContext(context.Background(), nw, sim, cws, workers)
}

// PHNSweepContext is PHNSweep under a context, checked between sweep
// points.
func PHNSweepContext(ctx context.Context, nw *topology.Network, sim SimConfig, cws []int, workers int) ([]float64, error) {
	if len(cws) == 0 {
		return nil, errors.New("multihop: empty CW sweep")
	}
	for _, w := range cws {
		if w < 1 {
			return nil, fmt.Errorf("multihop: CW %d < 1", w)
		}
	}
	if sim.MobilityEvery > 0 {
		return nil, fmt.Errorf("%w: p_hn sweep runs on a static snapshot, got MobilityEvery %g", ErrInvalidSimConfig, sim.MobilityEvery)
	}
	out := make([]float64, len(cws))
	err := parallel.ForEach(ctx, len(cws), workers, func(_, k int) error {
		s := sim
		s.CW = uniformCWProfile(cws[k], nw.N())
		r, err := Simulate(nw, s)
		if err != nil {
			return err
		}
		out[k] = r.HiddenFraction
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DefaultSimConfig returns the paper-flavored spatial simulation settings:
// RTS/CTS access (Section VI considers RTS/CTS networks), Table I utility
// parameters, and a given duration/seed.
func DefaultSimConfig(duration float64, seed uint64) SimConfig {
	p := phy.Default()
	return SimConfig{
		Timing:   p.MustTiming(phy.RTSCTS),
		MaxStage: p.MaxBackoffStage,
		Duration: duration,
		Seed:     seed,
		Gain:     1,
		Cost:     0.01,
	}
}

// uniformCWProfile returns an n-slot profile all at w. Each parallel
// simulator run needs its own profile slice (SimConfig.CW is retained by
// the run), so this is per-call, never shared.
func uniformCWProfile(w, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = w
	}
	return out
}
