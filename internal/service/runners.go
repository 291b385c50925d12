package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"

	"selfishmac/internal/backoff"
	"selfishmac/internal/experiments"
	"selfishmac/internal/macsim"
	"selfishmac/internal/multihop"
	"selfishmac/internal/phy"
	"selfishmac/internal/replicate"
	"selfishmac/internal/rng"
	"selfishmac/internal/stream"
	"selfishmac/internal/topology"
)

// registerBuiltins wires the production job kinds.
func registerBuiltins(s *Server) {
	s.RegisterRunner("replicate", runReplicateJob)
	s.RegisterRunner("singlehop", runSinglehopJob)
	s.RegisterRunner("experiment", runExperimentJob)
	s.RegisterRunner("detect", runDetectJob)
}

// Per-job work bounds. A job's ctx is checked only between engine runs,
// so one run cannot be cancelled once it starts: its size must be
// bounded at submit time.
const (
	// maxReplicateNodes is the largest network a "replicate" job may
	// simulate (the largest network any workload runs).
	maxReplicateNodes = 10000
	// maxMacsimNodes is the largest single-hop population, for the
	// "singlehop" and "detect" jobs alike.
	maxMacsimNodes = 200
	// maxDurationUs clamps the simulated time of one engine run.
	maxDurationUs = 600e6
	// maxReps is the largest replication budget of one job (the daemon
	// smoke test's long-running job uses it); the replication layer
	// sizes its per-replication buffers by it up front.
	maxReps = 1000000
	// maxAdjacencyEntries bounds a "replicate" topology's expected
	// adjacency size, about 10× the ~196,000 entries of the n=10,000
	// mobile benchmark network: without it a range covering the area
	// builds ~10⁸ entries at 10,000 nodes.
	maxAdjacencyEntries = 2000000
)

// boundRun rejects a population above maxNodes and clamps the simulated
// time per run to maxDurationUs.
func boundRun(kind string, nodes, maxNodes int, durationUs *float64) error {
	if nodes > maxNodes {
		return fmt.Errorf("service: %s population %d exceeds %d", kind, nodes, maxNodes)
	}
	*durationUs = min(*durationUs, maxDurationUs)
	return nil
}

// accessMode parses a job's access mode, "basic" or "rtscts".
func accessMode(mode string) (phy.AccessMode, error) {
	switch mode {
	case "basic":
		return phy.Basic, nil
	case "rtscts":
		return phy.RTSCTS, nil
	}
	return 0, fmt.Errorf("service: unknown mode %q (want basic or rtscts)", mode)
}

// ScheduleParams is the replication schedule shared by the "replicate"
// and "singlehop" jobs, embedded in both params structs. Zero fields
// take the documented defaults.
type ScheduleParams struct {
	// BaseSeed scopes the replication seed streams (default 1).
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// MinReps/MaxReps/BatchSize/RelCI drive the adaptive schedule
	// (defaults 3/24/3/0.05; MaxReps at most 1,000,000). RelCI <= 0
	// disables adaptive stopping.
	MinReps   int     `json:"min_reps,omitempty"`
	MaxReps   int     `json:"max_reps,omitempty"`
	BatchSize int     `json:"batch_size,omitempty"`
	RelCI     float64 `json:"rel_ci,omitempty"`
	// Workers bounds the replication pool (0 = GOMAXPROCS; larger
	// values are clamped to GOMAXPROCS, which changes no result: the
	// replication layer is bit-identical at any worker count).
	Workers int `json:"workers,omitempty"`
}

// resolve applies the documented defaults and the work bounds.
func (p *ScheduleParams) resolve() error {
	if p.BaseSeed == 0 {
		p.BaseSeed = 1
	}
	if p.MinReps <= 0 {
		p.MinReps = 3
	}
	if p.MaxReps <= 0 {
		p.MaxReps = 24
	}
	if p.BatchSize <= 0 {
		p.BatchSize = 3
	}
	if p.RelCI == 0 {
		p.RelCI = 0.05
	}
	if p.MaxReps > maxReps {
		return fmt.Errorf("service: max_reps %d exceeds %d", p.MaxReps, maxReps)
	}
	p.Workers = min(p.Workers, runtime.GOMAXPROCS(0))
	return nil
}

// MetricView is one metric's mean ± CI95 snapshot.
type MetricView struct {
	Name string  `json:"name"`
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	N    int     `json:"n"`
}

// ReplicateProgress is one progress line of a "replicate" or "singlehop"
// job.
type ReplicateProgress struct {
	Round   int          `json:"round"`
	Reps    int          `json:"reps"`
	Metrics []MetricView `json:"metrics"`
}

// ReplicateResult is the terminal payload of a "replicate" or
// "singlehop" job. On a cancelled job it carries the deterministic
// prefix (Cancelled true).
type ReplicateResult struct {
	Reps      int          `json:"reps"`
	Rounds    int          `json:"rounds"`
	Converged bool         `json:"converged"`
	Cancelled bool         `json:"cancelled"`
	Metrics   []MetricView `json:"metrics"`
}

// runReplicated runs one replicated job: the plan follows the schedule
// over the named seed stream, each round streams a ReplicateProgress
// line, and the result is the ReplicateResult view. factory builds one
// engine per replication worker; metrics names its outputs, metric 0
// being the adaptive-stopping target.
func runReplicated(ctx context.Context, sched ScheduleParams, stream string, metrics []string,
	factory func() (replicate.Replicator, error), progress func(v any)) (any, error) {
	plan := replicate.Plan{
		BaseSeed: sched.BaseSeed,
		Stream:   stream,
		Metrics:  len(metrics),
		Target:   0,
		Schedule: replicate.Schedule{
			MinReps:      sched.MinReps,
			MaxReps:      sched.MaxReps,
			RelTolerance: max(sched.RelCI, 0), // RelCI <= 0 disables adaptive stopping
			Workers:      sched.Workers,
		},
		BatchSize: sched.BatchSize,
		OnRound: func(st replicate.RoundStatus) {
			pr := ReplicateProgress{Round: st.Round, Reps: st.Reps}
			for m, sum := range st.Summaries {
				pr.Metrics = append(pr.Metrics, MetricView{Name: metrics[m], Mean: sum.Mean, CI95: sum.CI95, N: sum.N})
			}
			progress(pr)
		},
	}
	res, err := replicate.Run(ctx, plan, factory)
	if res == nil {
		return nil, err
	}
	view := &ReplicateResult{
		Reps:      res.Reps,
		Rounds:    res.Rounds,
		Converged: res.Converged,
		Cancelled: res.Cancelled,
	}
	for m, name := range metrics {
		sum := res.Summary(m)
		view.Metrics = append(view.Metrics, MetricView{Name: name, Mean: sum.Mean, CI95: sum.CI95, N: sum.N})
	}
	// On cancellation both the prefix result and ctx's error propagate:
	// the worker stores the partial view and marks the job Cancelled.
	return view, err
}

// ReplicateParams parameterizes a "replicate" job: an adaptively
// replicated spatial simulation at one uniform-CW operating point,
// streaming per-round progress. Zero fields take the documented defaults.
type ReplicateParams struct {
	// Nodes, Width, Height, Range, TopoSeed describe the topology
	// (defaults: the sparse 50-node acceptance network; at most 10,000
	// nodes).
	Nodes    int     `json:"nodes,omitempty"`
	Width    float64 `json:"width,omitempty"`
	Height   float64 `json:"height,omitempty"`
	Range    float64 `json:"range,omitempty"`
	TopoSeed uint64  `json:"topo_seed,omitempty"`
	// CW is the uniform contention window (default 116, the RTS/CTS NE
	// window of the default network).
	CW int `json:"cw,omitempty"`
	// DurationUs is the simulated time per replication in microseconds
	// (default 2e6, clamped to 600e6).
	DurationUs float64 `json:"duration_us,omitempty"`
	ScheduleParams
}

// resolve applies the documented defaults and the work bounds.
func (p *ReplicateParams) resolve() error {
	if p.Nodes <= 0 {
		p.Nodes = 50
	}
	if p.Width <= 0 {
		p.Width = 1000
	}
	if p.Height <= 0 {
		p.Height = 1000
	}
	if p.Range <= 0 {
		p.Range = 180
	}
	if p.TopoSeed == 0 {
		p.TopoSeed = 11
	}
	if p.CW <= 0 {
		p.CW = 116
	}
	if p.DurationUs <= 0 {
		p.DurationUs = 2e6
	}
	if err := p.ScheduleParams.resolve(); err != nil {
		return err
	}
	if err := boundRun("replicate", p.Nodes, maxReplicateNodes, &p.DurationUs); err != nil {
		return err
	}
	// Expected adjacency entries: every ordered pair, times the chance
	// that a uniformly placed partner lies in range. The ratios keep
	// huge extents finite, and a NaN estimate is rejected, not passed.
	n := float64(p.Nodes)
	if entries := n * (n - 1) * min(1, math.Pi*(p.Range/p.Width)*(p.Range/p.Height)); !(entries <= maxAdjacencyEntries) {
		return fmt.Errorf("service: replicate topology expects %.0f adjacency entries, exceeds %d", entries, maxAdjacencyEntries)
	}
	return nil
}

// replicateMetricNames matches spatialReplicator's metric layout.
var replicateMetricNames = []string{"global_payoff_rate", "hidden_fraction"}

// spatialReplicator is a "replicate" job's replicator over one reusable
// multihop Simulator: metric 0 is the network-wide payoff rate (the
// adaptive target), metric 1 the hidden-terminal loss fraction.
func spatialReplicator(sim *multihop.Simulator) replicate.Replicator {
	return func(seed uint64, out []float64) error {
		sim.Reset(seed)
		res, err := sim.Run()
		if err != nil {
			return err
		}
		out[0] = res.GlobalPayoffRate()
		out[1] = res.HiddenFraction
		return nil
	}
}

func runReplicateJob(ctx context.Context, raw json.RawMessage, progress func(v any)) (any, error) {
	var p ReplicateParams
	if err := decodeParams(raw, &p); err != nil {
		return nil, fmt.Errorf("service: bad replicate params: %w", err)
	}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	topo := topology.Config{N: p.Nodes, Width: p.Width, Height: p.Height, Range: p.Range, Seed: p.TopoSeed}
	cfg := multihop.DefaultSimConfig(p.DurationUs, rng.DeriveSeed(p.BaseSeed, "service.replicate.sim", 0))
	cfg.CW = backoff.Uniform(p.CW, p.Nodes)
	return runReplicated(ctx, p.ScheduleParams, "service.replicate", replicateMetricNames, func() (replicate.Replicator, error) {
		nw, err := topology.New(topo)
		if err != nil {
			return nil, err
		}
		sim, err := multihop.NewSimulator(nw, cfg)
		if err != nil {
			return nil, err
		}
		return spatialReplicator(sim), nil
	}, progress)
}

// SinglehopParams parameterizes a "singlehop" job: an adaptively
// replicated single-collision-domain simulation (macsim) at one uniform
// CW. Zero fields take the documented defaults.
type SinglehopParams struct {
	// Nodes is the population (default 20, max 200).
	Nodes int `json:"nodes,omitempty"`
	// CW is the uniform contention window (default 336, the 20-node
	// efficient-NE window).
	CW int `json:"cw,omitempty"`
	// Mode is "basic" (default) or "rtscts".
	Mode string `json:"mode,omitempty"`
	// DurationUs is the simulated time per replication in microseconds
	// (default 1e6, clamped to 600e6).
	DurationUs float64 `json:"duration_us,omitempty"`
	ScheduleParams
}

// resolve applies the documented defaults and the work bounds.
func (p *SinglehopParams) resolve() error {
	if p.Nodes <= 0 {
		p.Nodes = 20
	}
	if p.CW <= 0 {
		p.CW = 336
	}
	if p.Mode == "" {
		p.Mode = "basic"
	}
	if p.DurationUs <= 0 {
		p.DurationUs = 1e6
	}
	if err := p.ScheduleParams.resolve(); err != nil {
		return err
	}
	return boundRun("singlehop", p.Nodes, maxMacsimNodes, &p.DurationUs)
}

// singlehopMetricNames is a "singlehop" job's metric layout: metric 0
// is the global payoff rate (the adaptive target), metric 1 the global
// payload-airtime throughput.
var singlehopMetricNames = []string{"global_payoff_rate", "throughput"}

func runSinglehopJob(ctx context.Context, raw json.RawMessage, progress func(v any)) (any, error) {
	var p SinglehopParams
	if err := decodeParams(raw, &p); err != nil {
		return nil, fmt.Errorf("service: bad singlehop params: %w", err)
	}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	mode, err := accessMode(p.Mode)
	if err != nil {
		return nil, err
	}
	cfg := macsim.Config{Run: backoff.Default(mode, backoff.Uniform(p.CW, p.Nodes), p.DurationUs,
		rng.DeriveSeed(p.BaseSeed, "service.singlehop.sim", 0))}
	return runReplicated(ctx, p.ScheduleParams, "service.singlehop", singlehopMetricNames, func() (replicate.Replicator, error) {
		eng, err := macsim.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		return func(seed uint64, out []float64) error {
			eng.Reset(seed)
			res := eng.Run()
			out[0] = res.GlobalPayoffRate()
			out[1] = res.Throughput
			return nil
		}, nil
	}, progress)
}

// ExperimentParams parameterizes an "experiment" job: one registered
// paper experiment (see internal/experiments.All) by ID.
type ExperimentParams struct {
	// ID names the experiment ("T2", "F3", "A9", ...).
	ID string `json:"id"`
	// Profile is "quick" (default) or "paper".
	Profile string `json:"profile,omitempty"`
	// Seed overrides the master seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the experiment's internal fan-out (0 = GOMAXPROCS;
	// larger values are clamped to GOMAXPROCS, which changes no result:
	// every experiment is bit-identical at any worker count).
	Workers int `json:"workers,omitempty"`
}

// resolve applies the documented defaults and the work bounds, and
// rejects an unknown experiment ID or profile.
func (p *ExperimentParams) resolve() error {
	if _, ok := experiments.ByID(p.ID); !ok {
		return fmt.Errorf("service: unknown experiment %q", p.ID)
	}
	switch p.Profile {
	case "":
		p.Profile = "quick"
	case "quick", "paper":
	default:
		return fmt.Errorf("service: unknown profile %q (want quick or paper)", p.Profile)
	}
	p.Workers = min(p.Workers, runtime.GOMAXPROCS(0))
	return nil
}

// ExperimentResult is the terminal payload of an "experiment" job.
type ExperimentResult struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Text    string             `json:"text"`
}

func runExperimentJob(ctx context.Context, raw json.RawMessage, progress func(v any)) (any, error) {
	var p ExperimentParams
	if err := decodeParams(raw, &p); err != nil {
		return nil, fmt.Errorf("service: bad experiment params: %w", err)
	}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	runner, _ := experiments.ByID(p.ID)
	settings := experiments.QuickSettings()
	if p.Profile == "paper" {
		settings = experiments.DefaultSettings()
	}
	if p.Seed != 0 {
		settings.Seed = p.Seed
	}
	settings.Workers = p.Workers

	progress(map[string]any{"event": "started", "experiment": runner.ID, "profile": p.Profile})
	rep, err := runner.Run(ctx, settings)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("service: experiment %s: %w", runner.ID, err)
	}
	progress(map[string]any{"event": "finished", "experiment": runner.ID, "metrics": len(rep.Metrics)})
	return &ExperimentResult{ID: rep.ID, Title: rep.Title, Metrics: rep.Metrics, Text: rep.Text}, nil
}

// DetectParams parameterizes a "detect" job: one deterministic
// single-hop simulation with the internal/stream online detector on the
// engine's observer hook, streaming every flag event as a progress line.
// Zero fields take the documented defaults.
type DetectParams struct {
	// Nodes is the population (default 10, max 200).
	Nodes int `json:"nodes,omitempty"`
	// ExpectedCW is the conforming contention window the detector
	// assumes (default 166, the 10-node basic-access efficient-NE
	// window). Honest nodes run at this CW.
	ExpectedCW int `json:"expected_cw,omitempty"`
	// Cheaters pins the first Cheaters nodes to CheaterCW (default 1;
	// must leave at least one honest node).
	Cheaters int `json:"cheaters,omitempty"`
	// CheaterCW is the cheating window (default ExpectedCW/8, min 1).
	CheaterCW int `json:"cheater_cw,omitempty"`
	// Beta is the detection tolerance in (0, 1]: flag a node when its
	// windowed estimate falls below Beta*ExpectedCW (default 0.6).
	Beta float64 `json:"beta,omitempty"`
	// WindowSlots is the estimation window in virtual slots (default 1500).
	WindowSlots int64 `json:"window_slots,omitempty"`
	// Mode is "basic" (default) or "rtscts".
	Mode string `json:"mode,omitempty"`
	// DurationUs is the simulated time in microseconds (default 30e6,
	// clamped to 600e6).
	DurationUs float64 `json:"duration_us,omitempty"`
	// Seed drives the simulation (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// MaxFlagLines caps the streamed flag progress lines (default 50);
	// later flags are still counted in the result, and one
	// "flags_truncated" line marks the cut.
	MaxFlagLines int `json:"max_flag_lines,omitempty"`
}

// resolve applies the documented defaults and the work bounds, and
// rejects a cheater count that leaves no honest node.
func (p *DetectParams) resolve() error {
	if p.Nodes <= 0 {
		p.Nodes = 10
	}
	if p.ExpectedCW <= 0 {
		p.ExpectedCW = 166
	}
	if p.Cheaters == 0 {
		p.Cheaters = 1
	}
	if p.CheaterCW <= 0 {
		p.CheaterCW = p.ExpectedCW / 8
		if p.CheaterCW < 1 {
			p.CheaterCW = 1
		}
	}
	if p.Beta == 0 {
		p.Beta = 0.6
	}
	if p.WindowSlots <= 0 {
		p.WindowSlots = 1500
	}
	if p.Mode == "" {
		p.Mode = "basic"
	}
	if p.DurationUs <= 0 {
		p.DurationUs = 30e6
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.MaxFlagLines <= 0 {
		p.MaxFlagLines = 50
	}
	if err := boundRun("detect", p.Nodes, maxMacsimNodes, &p.DurationUs); err != nil {
		return err
	}
	if p.Cheaters < 0 || p.Cheaters >= p.Nodes {
		return fmt.Errorf("service: %d cheaters leave no honest node among %d", p.Cheaters, p.Nodes)
	}
	return nil
}

// DetectFlagLine is one streamed flag event (progress, event "flag").
type DetectFlagLine struct {
	Event      string  `json:"event"`
	Node       int     `json:"node"`
	Window     int64   `json:"window"`
	EndSlot    int64   `json:"end_slot"`
	EstCW      float64 `json:"est_cw"`
	ExpectedCW float64 `json:"expected_cw"`
	Margin     float64 `json:"margin"`
	Cheater    bool    `json:"cheater"`
}

// DetectNodeView is one node's detection summary in a DetectResult.
type DetectNodeView struct {
	Node          int     `json:"node"`
	CW            int     `json:"cw"`
	Cheater       bool    `json:"cheater"`
	Flags         int64   `json:"flags"`
	FirstFlagSlot int64   `json:"first_flag_slot"` // -1: never flagged
	MeanEstCW     float64 `json:"mean_est_cw"`
	EstWindows    int     `json:"est_windows"`
}

// DetectResult is the terminal payload of a "detect" job.
type DetectResult struct {
	Slots          int64            `json:"slots"`
	Windows        int64            `json:"windows"`
	Flags          int64            `json:"flags"`
	TruePositives  int              `json:"true_positives"`  // cheater nodes flagged at least once
	FalsePositives int64            `json:"false_positives"` // flag events on honest nodes
	LatencySlots   int64            `json:"latency_slots"`   // earliest cheater first-flag slot, -1 if none
	Nodes          []DetectNodeView `json:"nodes"`
}

func runDetectJob(ctx context.Context, raw json.RawMessage, progress func(v any)) (any, error) {
	var p DetectParams
	if err := decodeParams(raw, &p); err != nil {
		return nil, fmt.Errorf("service: bad detect params: %w", err)
	}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	mode, err := accessMode(p.Mode)
	if err != nil {
		return nil, err
	}
	cw := backoff.Uniform(p.ExpectedCW, p.Nodes)
	for i := 0; i < p.Cheaters; i++ {
		cw[i] = p.CheaterCW
	}
	cfg := macsim.Config{Run: backoff.Default(mode, cw, p.DurationUs, rng.DeriveSeed(p.Seed, "service.detect.sim", 0))}

	flagged := 0
	mon, err := stream.NewMonitor(stream.Config{
		Nodes:       p.Nodes,
		WindowSlots: p.WindowSlots,
		MaxStage:    cfg.MaxStage,
		ExpectedCW:  p.ExpectedCW,
		Beta:        p.Beta,
		OnFlag: func(ev stream.FlagEvent) {
			flagged++
			if flagged == p.MaxFlagLines+1 {
				progress(map[string]any{"event": "flags_truncated", "emitted": p.MaxFlagLines})
			}
			if flagged > p.MaxFlagLines {
				return
			}
			progress(DetectFlagLine{
				Event: "flag", Node: ev.Node, Window: ev.Window, EndSlot: ev.EndSlot,
				EstCW: ev.EstCW, ExpectedCW: ev.ExpectedCW, Margin: ev.Margin,
				Cheater: ev.Node < p.Cheaters,
			})
		},
	})
	if err != nil {
		return nil, fmt.Errorf("service: detect monitor: %w", err)
	}

	cfg.Observer = mon
	eng, err := macsim.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("service: detect engine: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	progress(map[string]any{
		"event": "started", "nodes": p.Nodes, "cheaters": p.Cheaters,
		"expected_cw": p.ExpectedCW, "cheater_cw": p.CheaterCW, "beta": p.Beta,
		"window_slots": p.WindowSlots, "duration_us": p.DurationUs,
	})
	res := eng.Run()
	mon.Finish(res.Slots)

	view := &DetectResult{
		Slots:        res.Slots,
		Windows:      mon.Windows(),
		Flags:        mon.Flags(),
		LatencySlots: -1,
	}
	for i := 0; i < p.Nodes; i++ {
		sum := mon.EstimateSummary(i)
		nv := DetectNodeView{
			Node: i, CW: cw[i], Cheater: i < p.Cheaters,
			Flags: mon.NodeFlags(i), FirstFlagSlot: mon.FirstFlagSlot(i),
			MeanEstCW: sum.Mean, EstWindows: sum.N,
		}
		if nv.Cheater {
			if nv.FirstFlagSlot >= 0 {
				view.TruePositives++
				if view.LatencySlots < 0 || nv.FirstFlagSlot < view.LatencySlots {
					view.LatencySlots = nv.FirstFlagSlot
				}
			}
		} else {
			view.FalsePositives += nv.Flags
		}
		view.Nodes = append(view.Nodes, nv)
	}
	return view, nil
}

// decodeParams strictly decodes a job's params blob, rejecting unknown
// fields so typos fail loudly at submit-to-run time, not silently.
func decodeParams(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
