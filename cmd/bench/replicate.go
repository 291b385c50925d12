package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"selfishmac/internal/multihop"
	"selfishmac/internal/replicate"
	"selfishmac/internal/topology"
)

// replicate.go measures the replication layer (internal/replicate),
// writing BENCH_replicate.json:
//
//   - worker_scaling: wall-clock of one fixed-R replicated measurement
//     at 1/2/4/8 workers. Speedups are hardware-bound: on a single-CPU
//     host (GOMAXPROCS=1) all worker counts serialize and the honest
//     ratio is ~1x; the gomaxprocs field records what the numbers mean.
//   - adaptive: replications spent by the adaptive CI-targeted schedule
//     vs the fixed worst-case R across a CW sweep, with the CI each
//     point reached.

// ScalingResult is one worker count's wall-clock for the fixed workload.
type ScalingResult struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup_vs_1"`
}

// AdaptivePoint is one CW operating point of the adaptive-vs-fixed sweep.
type AdaptivePoint struct {
	W            int     `json:"w"`
	AdaptiveReps int     `json:"adaptive_reps"`
	AdaptiveCI   float64 `json:"adaptive_rel_ci95"`
	FixedReps    int     `json:"fixed_reps"`
	FixedCI      float64 `json:"fixed_rel_ci95"`
}

// AdaptiveResult aggregates the sweep.
type AdaptiveResult struct {
	RelCITarget   float64         `json:"rel_ci_target"`
	MinReps       int             `json:"min_reps"`
	MaxReps       int             `json:"max_reps"`
	Points        []AdaptivePoint `json:"points"`
	AdaptiveTotal int             `json:"adaptive_total_reps"`
	FixedTotal    int             `json:"fixed_total_reps"`
	RepsSaved     int             `json:"reps_saved"`
}

// ReplicateFile is the BENCH_replicate.json schema.
type ReplicateFile struct {
	Generated     string          `json:"generated"`
	GoVersion     string          `json:"go"`
	GOMAXPROCS    int             `json:"gomaxprocs"`
	NumCPU        int             `json:"num_cpu"`
	Profile       string          `json:"profile"`
	Note          string          `json:"note"`
	WorkerScaling []ScalingResult `json:"worker_scaling"`
	Adaptive      AdaptiveResult  `json:"adaptive"`
}

// replicateWorkload is the shared spatial scenario: the sparse 50-node
// acceptance network at the RTS/CTS NE window.
func replicateWorkload(dur float64) (*topology.Network, multihop.SimConfig, error) {
	nw, err := topology.New(topology.Config{N: 50, Width: 1000, Height: 1000, Range: 180, Seed: 11})
	if err != nil {
		return nil, multihop.SimConfig{}, err
	}
	cfg := multihop.DefaultSimConfig(dur, 7)
	cfg.CW = uniformCW(116, 50)
	return nw, cfg, nil
}

func measureWorkerScaling(ctx context.Context, mhDur float64, reps int) ([]ScalingResult, error) {
	nw, cfg, err := replicateWorkload(mhDur)
	if err != nil {
		return nil, err
	}
	factory := func() (replicate.Replicator, error) {
		sim, err := multihop.NewSimulator(nw, cfg)
		if err != nil {
			return nil, err
		}
		return globalRateReplicator{sim}, nil
	}
	// The fixed ladder plus workers=NumCPU: the one row whose speedup the
	// hardware can actually deliver, so the file always carries an honest
	// saturation point (on a 1-CPU host that row is workers=1 at ~1x).
	counts := []int{1, 2, 4, 8, runtime.NumCPU()}
	slices.Sort(counts)
	counts = slices.Compact(counts)
	var out []ScalingResult
	var base float64
	for _, workers := range counts {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		plan := replicate.FixedPlan(3, "bench.scaling", 1, reps, workers)
		// Warm once (engine construction, page faults), then time.
		if _, err := replicate.RunContext(ctx, plan, factory); err != nil {
			return out, err
		}
		start := time.Now()
		if _, err := replicate.RunContext(ctx, plan, factory); err != nil {
			return out, err
		}
		secs := time.Since(start).Seconds()
		sr := ScalingResult{Workers: workers, Seconds: secs}
		if workers == counts[0] {
			base = secs
		}
		if secs > 0 {
			sr.Speedup = base / secs
		}
		out = append(out, sr)
	}
	return out, nil
}

type globalRateReplicator struct{ sim *multihop.Simulator }

func (r globalRateReplicator) Replicate(seed uint64, out []float64) error {
	r.sim.Reset(seed)
	res, err := r.sim.Run()
	if err != nil {
		return err
	}
	out[0] = res.GlobalPayoffRate()
	return nil
}

func measureAdaptive(ctx context.Context, mhDur float64, minReps, maxReps int, relCI float64) (AdaptiveResult, error) {
	nw, cfg, err := replicateWorkload(mhDur)
	if err != nil {
		return AdaptiveResult{}, err
	}
	res := AdaptiveResult{RelCITarget: relCI, MinReps: minReps, MaxReps: maxReps}
	for _, w := range []int{58, 116, 232} {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		sim := cfg
		sim.CW = uniformCW(w, 50)
		factory := func() (replicate.Replicator, error) {
			s, err := multihop.NewSimulator(nw, sim)
			if err != nil {
				return nil, err
			}
			return globalRateReplicator{s}, nil
		}
		stream := fmt.Sprintf("bench.adaptive.w%d", w)
		adaptive, err := replicate.RunContext(ctx, replicate.Plan{
			BaseSeed: 5, Stream: stream, Metrics: 1,
			RelTolerance: relCI, MinReps: minReps, MaxReps: maxReps,
		}, factory)
		if err != nil {
			return res, err
		}
		fixed, err := replicate.RunContext(ctx, replicate.FixedPlan(5, stream, 1, maxReps, 0), factory)
		if err != nil {
			return res, err
		}
		relOf := func(r *replicate.Result) float64 {
			if m := r.Mean(0); m != 0 {
				return r.CI95(0) / m
			}
			return 0
		}
		res.Points = append(res.Points, AdaptivePoint{
			W:            w,
			AdaptiveReps: adaptive.Reps,
			AdaptiveCI:   relOf(adaptive),
			FixedReps:    fixed.Reps,
			FixedCI:      relOf(fixed),
		})
		res.AdaptiveTotal += adaptive.Reps
		res.FixedTotal += fixed.Reps
	}
	res.RepsSaved = res.FixedTotal - res.AdaptiveTotal
	return res, nil
}

// runReplicate drives the -replicate mode. An interrupt mid-suite stops
// measuring and writes whatever stages completed.
func runReplicate(ctx context.Context, out string, quick bool) error {
	mhDur := 10e6
	minReps, maxReps := 4, 24
	scalingReps := 16
	relCI := 0.05
	if quick {
		mhDur = 5e5
		minReps, maxReps = 2, 6
		scalingReps = 4
	}
	profile := "paper"
	if quick {
		profile = "quick"
	}
	file := ReplicateFile{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Profile:    profile,
		Note: "Replication-layer benchmarks: worker_scaling is " +
			"wall-clock of one fixed-R measurement at 1/2/4/8 workers plus workers=num_cpu, the " +
			"saturation row the hardware can honestly deliver (parallel speedup is bounded by " +
			"gomaxprocs — on a 1-CPU host all counts measure ~1x); adaptive counts replications " +
			"spent by the CI-targeted schedule vs fixed worst-case R. " +
			"Regenerate with `make bench-replicate`.",
	}
	writeFile := func() error {
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
		return nil
	}
	interrupted := func(stageErr error) error {
		file.Note += " PARTIAL RUN: interrupted before all stages completed."
		if werr := writeFile(); werr != nil {
			return werr
		}
		return fmt.Errorf("interrupted: %w", stageErr)
	}

	var err error
	if file.WorkerScaling, err = measureWorkerScaling(ctx, mhDur, scalingReps); err != nil {
		if ctx.Err() != nil {
			return interrupted(err)
		}
		return err
	}
	for _, sr := range file.WorkerScaling {
		fmt.Printf("workers=%d %8.3fs speedup %.2fx\n", sr.Workers, sr.Seconds, sr.Speedup)
	}
	if file.Adaptive, err = measureAdaptive(ctx, mhDur, minReps, maxReps, relCI); err != nil {
		if ctx.Err() != nil {
			return interrupted(err)
		}
		return err
	}
	fmt.Printf("adaptive: %d reps vs fixed %d (saved %d)\n",
		file.Adaptive.AdaptiveTotal, file.Adaptive.FixedTotal, file.Adaptive.RepsSaved)
	return writeFile()
}
