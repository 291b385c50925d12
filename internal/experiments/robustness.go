package experiments

import (
	"context"
	"fmt"
	"strings"

	"selfishmac/internal/core"
	"selfishmac/internal/multihop"
	"selfishmac/internal/parallel"
	"selfishmac/internal/phy"
	"selfishmac/internal/plot"
	"selfishmac/internal/replicate"
	"selfishmac/internal/rng"
	"selfishmac/internal/search"
	"selfishmac/internal/topology"
)

// Robustness measures how gracefully the distributed NE search and the
// multi-hop TFT dynamic degrade under deployment faults: broadcast loss,
// payoff-measurement outliers and transient failures, a leader crash with
// deputy failover, an exhausted probe budget, and node churn during
// convergence. Every scenario is seeded via rng.DeriveSeed and replays
// byte-identically.
func Robustness(ctx context.Context, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g, err := core.NewGame(core.DefaultConfig(10, phy.RTSCTS))
	if err != nil {
		return nil, err
	}
	ne, err := g.FindEfficientNE()
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "A9", Title: "Robustness: resilient NE search under faults"}
	var text []string
	const w0 = 8

	resilientOpts := search.Options{WMax: g.Config().WMax}

	// (a) NE error and probe count vs broadcast drop probability, with a
	// light background of outliers and transient failures.
	drops := []float64{0, 0.1, 0.2, 0.3, 0.4}
	dropRes := make([]search.Result, len(drops))
	err = parallel.ForEach(ctx, len(drops), s.Workers, func(_, i int) error {
		env, err := search.NewAnalyticEnv(g, 0, w0, search.FaultConfig{
			Seed:        rng.DeriveSeed(s.Seed, "A9.drop", i),
			DropProb:    drops[i],
			DupProb:     0.05,
			OutlierProb: 0.1,
			FailProb:    0.05,
		})
		if err != nil {
			return err
		}
		dropRes[i], err = search.ResilientRun(env, 0, w0, resilientOpts)
		return err
	})
	if err != nil {
		return nil, err
	}
	tb := plot.Table{
		Title: fmt.Sprintf("Resilient search vs drop probability (n=10, RTS/CTS, exact NE=%d, 10%% outliers, 5%% transient failures)",
			ne.WStar),
		Headers: []string{"drop prob", "found", "|err|", "probes", "measurements", "rebroadcasts", "degraded"},
	}
	var csv strings.Builder
	csv.WriteString("drop_prob,found_w,abs_err,probes,measurements,rebroadcasts,degraded\n")
	for i, drop := range drops {
		r := dropRes[i]
		absErr := r.W - ne.WStar
		if absErr < 0 {
			absErr = -absErr
		}
		tb.MustAddRow(fmt.Sprintf("%.1f", drop), fmt.Sprintf("%d", r.W), fmt.Sprintf("%d", absErr),
			fmt.Sprintf("%d", r.ProbeCount()), fmt.Sprintf("%d", r.Measurements),
			fmt.Sprintf("%d", r.Rebroadcasts), fmt.Sprintf("%v", r.Degraded))
		fmt.Fprintf(&csv, "%.2f,%d,%d,%d,%d,%d,%v\n", drop, r.W, absErr,
			r.ProbeCount(), r.Measurements, r.Rebroadcasts, r.Degraded)
		key := fmt.Sprintf("drop%02.0f_", drop*100)
		rep.Metric(key+"abs_err", float64(absErr))
		rep.Metric(key+"measurements", float64(r.Measurements))
		rep.Metric(key+"degraded", boolMetric(r.Degraded))
	}
	text = append(text, tb.Render())
	rep.Artifacts = append(rep.Artifacts, Artifact{Name: "a9_drop_sweep.csv", Content: csv.String()})

	// (b) NE error vs measurement noise level (outlier probability) —
	// median-of-3 has to reject the gross errors.
	noises := []float64{0, 0.1, 0.2, 0.3}
	noiseRes := make([]search.Result, len(noises))
	err = parallel.ForEach(ctx, len(noises), s.Workers, func(_, i int) error {
		env, err := search.NewAnalyticEnv(g, 0, w0, search.FaultConfig{
			Seed:        rng.DeriveSeed(s.Seed, "A9.noise", i),
			OutlierProb: noises[i],
		})
		if err != nil {
			return err
		}
		noiseRes[i], err = search.ResilientRun(env, 0, w0, resilientOpts)
		return err
	})
	if err != nil {
		return nil, err
	}
	tbN := plot.Table{
		Title:   "Resilient search vs outlier probability (median-of-3 measurement)",
		Headers: []string{"outlier prob", "found", "|err|", "measurements"},
	}
	for i, p := range noises {
		r := noiseRes[i]
		absErr := r.W - ne.WStar
		if absErr < 0 {
			absErr = -absErr
		}
		tbN.MustAddRow(fmt.Sprintf("%.1f", p), fmt.Sprintf("%d", r.W),
			fmt.Sprintf("%d", absErr), fmt.Sprintf("%d", r.Measurements))
		rep.Metric(fmt.Sprintf("noise%02.0f_abs_err", p*100), float64(absErr))
	}
	text = append(text, tbN.Render())

	// (c) Leader crash mid-search: the deputy must finish the walk.
	crashEnv, err := search.NewAnalyticEnv(g, 0, w0, search.FaultConfig{
		Seed:             rng.DeriveSeed(s.Seed, "A9.crash", 0),
		DropProb:         0.2,
		LeaderCrashAfter: 5,
	})
	if err != nil {
		return nil, err
	}
	crashRes, err := search.ResilientRun(crashEnv, 0, w0, resilientOpts)
	if err != nil {
		return nil, err
	}
	crashErr := crashRes.W - ne.WStar
	if crashErr < 0 {
		crashErr = -crashErr
	}
	text = append(text, fmt.Sprintf(
		"leader crash after 5 measurements (20%% drop): deputy %d announced W=%d (|err|=%d, failover=%v, degraded=%v)",
		crashRes.Leader, crashRes.W, crashErr, crashRes.FailedOver, crashRes.Degraded))
	rep.Metric("crash_abs_err", float64(crashErr))
	rep.Metric("crash_failed_over", boolMetric(crashRes.FailedOver))
	rep.Metric("crash_deputy", float64(crashRes.Leader))

	// (d) Probe budget exhaustion: best-so-far with the Degraded flag.
	budgetEnv, err := search.NewAnalyticEnv(g, 0, w0, search.FaultConfig{
		Seed:     rng.DeriveSeed(s.Seed, "A9.budget", 0),
		DropProb: 0.2,
	})
	if err != nil {
		return nil, err
	}
	budgetOpts := resilientOpts
	budgetOpts.ProbeBudget = 12
	budgetRes, err := search.ResilientRun(budgetEnv, 0, w0, budgetOpts)
	if err != nil {
		return nil, err
	}
	text = append(text, fmt.Sprintf(
		"probe budget 12: announced best-so-far W=%d after %d measurements (degraded=%v)",
		budgetRes.W, budgetRes.Measurements, budgetRes.Degraded))
	rep.Metric("budget_degraded", boolMetric(budgetRes.Degraded))
	rep.Metric("budget_found_w", float64(budgetRes.W))

	// (e) TFT convergence under node churn on a static spatial network.
	// Each churn rate is a replicated measurement (internal/replicate):
	// every replication rebuilds the same topology (fixed topology seed)
	// but draws its own initial profiles and churn/simulation streams
	// from the replication seed, so the reported convergence stage and
	// CW are means with a CI, not a single trajectory.
	nodes := s.MultihopNodes
	if nodes > 24 {
		nodes = 24 // churn stages are sequential simulator runs; keep it light
	}
	topoCfg := topology.Config{
		N: nodes, Width: 600, Height: 600, Range: 250,
		Seed: rng.DeriveSeed(s.Seed, "A9.topo", 0),
	}
	churnRates := []float64{0, 0.02, 0.05}
	type churnRow struct {
		res *replicate.Result
	}
	churnRows := make([]churnRow, len(churnRates))
	for i, rate := range churnRates {
		// Metrics: converged-at stage, converged CW, stages run.
		measure := func(seed uint64, out []float64) error {
			nw, err := topology.New(topoCfg)
			if err != nil {
				return err
			}
			r := rng.New(rng.DeriveSeed(seed, "init", 0))
			strats := make([]core.Strategy, nodes)
			for j := range strats {
				strats[j] = core.TFT{Initial: 32 + r.Intn(64)}
			}
			sim := multihop.DefaultSimConfig(s.MultihopSimTime/4, rng.DeriveSeed(seed, "sim", 0))
			eng, err := multihop.NewEngine(nw, strats, sim)
			if err != nil {
				return err
			}
			if rate > 0 {
				eng = eng.WithChurn(multihop.ChurnConfig{
					Seed:      rng.DeriveSeed(seed, "churn", 0),
					LeaveProb: rate,
					JoinProb:  0.3,
					MinActive: nodes / 2,
				})
			}
			tr, err := eng.WithStopWindow(3).Run(20)
			if err != nil {
				return err
			}
			out[0] = float64(tr.ConvergedAt)
			out[1] = float64(tr.ConvergedCW)
			out[2] = float64(len(tr.Stages))
			return nil
		}
		rres, err := replicate.Run(ctx, s.plan(fmt.Sprintf("A9.churn%02.0f", rate*100), 3), func() (replicate.Replicator, error) { return measure, nil })
		if err != nil {
			return nil, err
		}
		churnRows[i] = churnRow{res: rres}
	}
	tbC := plot.Table{
		Title:   fmt.Sprintf("TFT convergence under churn (%d nodes, static topology, 20 stages max, mean over reps)", nodes),
		Headers: []string{"leave prob/stage", "converged at", "converged CW", "stages run", "ci95", "reps"},
	}
	for i, rate := range churnRates {
		row := churnRows[i].res
		tbC.MustAddRow(fmt.Sprintf("%.2f", rate), fmt.Sprintf("%.1f", row.Mean(0)),
			fmt.Sprintf("%.1f", row.Mean(1)), fmt.Sprintf("%.1f", row.Mean(2)),
			fmt.Sprintf("%.2f", row.CI95(0)), fmt.Sprintf("%d", row.Reps))
		key := fmt.Sprintf("churn%02.0f_", rate*100)
		rep.Metric(key+"converged_at", row.Mean(0))
		rep.Metric(key+"converged_cw", row.Mean(1))
		rep.Metric(key+"converged_at_ci95", row.CI95(0))
		rep.Metric(key+"reps", float64(row.Reps))
	}
	text = append(text, tbC.Render())

	rep.Text = strings.Join(text, "\n")
	return rep, nil
}
