package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"selfishmac/internal/core"
	"selfishmac/internal/multihop"
	"selfishmac/internal/phy"
	"selfishmac/internal/plot"
	"selfishmac/internal/rng"
	"selfishmac/internal/stats"
	"selfishmac/internal/topology"
)

// paperTopoConfig returns the Section VII topology for s: the paper's
// 100-node layout, with the area grown by sqrt(n/100) when the node
// count is raised above 100 so density — and hence mean degree — stays
// at the paper's operating point instead of collapsing the larger
// population into a single collision domain.
func paperTopoConfig(s Settings, stream string) topology.Config {
	cfg := topology.PaperConfig(rng.DeriveSeed(s.Seed, stream, 0))
	cfg.N = s.MultihopNodes
	if s.MultihopNodes > 100 {
		scale := math.Sqrt(float64(s.MultihopNodes) / 100)
		cfg.Width *= scale
		cfg.Height *= scale
	}
	return cfg
}

// MultihopQuasiOptimality reproduces Section VII.B: the paper's 100-node
// mobile scenario (1000x1000 m, 250 m range, random waypoint at up to
// 5 m/s). It computes each node's local efficient-NE CW, the TFT-converged
// Wm = min_i W_i, and measures how close operating at Wm comes to the best
// common operating point — per node and globally. The paper reports
// Wm = 26, per-node >= 96% and global within 3% of optimal.
func MultihopQuasiOptimality(ctx context.Context, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nw, err := topology.New(paperTopoConfig(s, "M1.topology"))
	if err != nil {
		return nil, err
	}
	// Warm the random-waypoint model up so the snapshot samples its
	// stationary distribution (center-concentrated) rather than the
	// uniform initial placement — this is what a mid-run observation of
	// the paper's 1000 s mobile simulation sees, and it removes the
	// artificially isolated border nodes of the t = 0 layout.
	if err := nw.Step(300); err != nil {
		return nil, err
	}
	sel, err := multihop.NewLocalCWSelector(core.DefaultConfig(2, phy.RTSCTS))
	if err != nil {
		return nil, err
	}
	profile, err := multihop.LocalCWProfile(nw, sel)
	if err != nil {
		return nil, err
	}
	wm := multihop.ConvergedCW(profile)
	_, stages, converged := multihop.TFTConverge(nw.Rows(), profile, 10*nw.N())

	// Cross-check Theorem 3 dynamically: run the stage-based multi-hop
	// engine with TFT players from the same initial profile and verify it
	// reaches the same Wm.
	strats := make([]core.Strategy, nw.N())
	for i := range strats {
		strats[i] = core.TFT{Initial: profile[i]}
	}
	eng, err := multihop.NewEngine(nw, strats, multihop.DefaultSimConfig(2e6, rng.DeriveSeed(s.Seed, "M1.engine", 0)))
	if err != nil {
		return nil, err
	}
	dynTrace, err := eng.WithStopWindow(2).Run(10 * nw.N())
	if err != nil {
		return nil, err
	}

	res, err := multihop.MeasureQuasiOptimality(ctx, nw, multihop.QuasiOptConfig{
		Sim:              multihop.DefaultSimConfig(s.MultihopSimTime, rng.DeriveSeed(s.Seed, "M1.sweep", 0)),
		Wm:               wm,
		SweepMultipliers: []float64{0.4, 0.6, 0.8, 1.25, 1.6, 2.2, 3},
		Schedule:         s.Schedule,
	})
	if err != nil {
		return nil, err
	}
	sweepReps := 0
	maxCI := 0.0
	for i := range res.SweptCWs {
		sweepReps += res.RepsPerCW[i]
		if res.GlobalCI95PerCW[i] > maxCI {
			maxCI = res.GlobalCI95PerCW[i]
		}
	}

	tb := plot.Table{
		Title:   "Section VII.B: multi-hop quasi-optimality",
		Headers: []string{"quantity", "value", "paper"},
	}
	tb.MustAddRow("nodes", fmt.Sprintf("%d", nw.N()), "100")
	tb.MustAddRow("mean degree", fmt.Sprintf("%.1f", nw.MeanDegree()), "-")
	tb.MustAddRow("connected snapshot", fmt.Sprintf("%v", nw.Connected()), "connected")
	tb.MustAddRow("converged CW (Wm)", fmt.Sprintf("%d", wm), "26")
	tb.MustAddRow("TFT stages to converge", fmt.Sprintf("%d (converged=%v)", stages, converged), "-")
	tb.MustAddRow("dynamic-engine converged CW", fmt.Sprintf("%d (stage %d)", dynTrace.ConvergedCW, dynTrace.ConvergedAt), "= Wm")
	tb.MustAddRow("min per-node payoff ratio", fmt.Sprintf("%.3f", res.MinPerNodeRatio), ">= 0.96")
	tb.MustAddRow("mean per-node payoff ratio", fmt.Sprintf("%.3f", res.MeanPerNodeRatio), "-")
	tb.MustAddRow("median per-node payoff ratio", fmt.Sprintf("%.3f", stats.Median(res.PerNodeRatio)), "-")
	tb.MustAddRow("global payoff ratio", fmt.Sprintf("%.3f", res.GlobalRatio), ">= 0.97")
	tb.MustAddRow("best uniform CW in sweep", fmt.Sprintf("%d", res.BestGlobalW), "-")
	tb.MustAddRow("sweep replications (total)", fmt.Sprintf("%d over %d CWs", sweepReps, len(res.SweptCWs)), "-")
	tb.MustAddRow("max global CI95 half-width", fmt.Sprintf("%.4g", maxCI), "-")

	rep := &Report{ID: "M1", Title: "Multi-hop quasi-optimality", Text: tb.Render()}
	rep.Metric("wm", float64(wm))
	rep.Metric("tft_stages", float64(stages))
	rep.Metric("dynamic_converged_cw", float64(dynTrace.ConvergedCW))
	rep.Metric("min_per_node_ratio", res.MinPerNodeRatio)
	rep.Metric("mean_per_node_ratio", res.MeanPerNodeRatio)
	rep.Metric("median_per_node_ratio", stats.Median(res.PerNodeRatio))
	rep.Metric("global_ratio", res.GlobalRatio)
	rep.Metric("best_global_w", float64(res.BestGlobalW))
	rep.Metric("mean_degree", nw.MeanDegree())
	rep.Metric("sweep_reps_total", float64(sweepReps))
	rep.Metric("sweep_ci95_max", maxCI)

	// Per-node ratio CSV.
	idx := make([]float64, len(res.PerNodeRatio))
	for i := range idx {
		idx[i] = float64(i)
	}
	var csv strings.Builder
	if err := plot.WriteCSV(&csv, []string{"node", "payoff_ratio"}, idx, res.PerNodeRatio); err != nil {
		return nil, err
	}
	rep.Artifacts = append(rep.Artifacts, Artifact{Name: "m1_per_node_ratio.csv", Content: csv.String()})

	// Per-CW sweep CSV: reps spent and CI reached at every operating point.
	ws := make([]float64, len(res.SweptCWs))
	reps := make([]float64, len(res.SweptCWs))
	for i, w := range res.SweptCWs {
		ws[i] = float64(w)
		reps[i] = float64(res.RepsPerCW[i])
	}
	var sweepCSV strings.Builder
	if err := plot.WriteCSV(&sweepCSV, []string{"w", "reps", "global_ci95"},
		ws, reps, res.GlobalCI95PerCW); err != nil {
		return nil, err
	}
	rep.Artifacts = append(rep.Artifacts, Artifact{Name: "m1_sweep.csv", Content: sweepCSV.String()})
	return rep, nil
}

// HiddenNodeInvariance reproduces the Section VI.A approximation check:
// the hidden-node loss fraction (1 − p_hn) is roughly independent of the
// common CW value when the network is large and CW is not too small.
func HiddenNodeInvariance(ctx context.Context, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nw, err := topology.New(paperTopoConfig(s, "M2.topology"))
	if err != nil {
		return nil, err
	}
	if err := nw.Step(300); err != nil { // RWP stationary snapshot
		return nil, err
	}
	cws := []int{8, 16, 26, 40, 64, 104, 160}
	fracs, err := multihop.PHNSweep(ctx, nw, multihop.DefaultSimConfig(s.MultihopSimTime, rng.DeriveSeed(s.Seed, "M2.phn", 0)), cws, s.Workers)
	if err != nil {
		return nil, err
	}
	tb := plot.Table{
		Title:   "Section VI.A: hidden-node loss fraction vs common CW",
		Headers: []string{"CW", "hidden loss fraction", "p_hn"},
	}
	xs := make([]float64, len(cws))
	for i, w := range cws {
		xs[i] = float64(w)
		tb.MustAddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%.4f", fracs[i]), fmt.Sprintf("%.4f", 1-fracs[i]))
	}
	rep := &Report{ID: "M2", Title: "Hidden-node factor invariance", Text: tb.Render()}
	// The invariance metric: spread of p_hn across the sweep, excluding
	// the smallest CW values the paper itself exempts.
	tail := fracs[2:]
	lo, hi := stats.MinMax(tail)
	rep.Metric("phn_min", 1-hi)
	rep.Metric("phn_max", 1-lo)
	rep.Metric("phn_spread", hi-lo)
	var csv strings.Builder
	if err := plot.WriteCSV(&csv, []string{"cw", "hidden_fraction"}, xs, fracs); err != nil {
		return nil, err
	}
	rep.Artifacts = append(rep.Artifacts, Artifact{Name: "m2_phn.csv", Content: csv.String()})
	return rep, nil
}
