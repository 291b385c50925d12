package experiments

import (
	"context"
	"fmt"
	"strings"

	"selfishmac/internal/core"
	"selfishmac/internal/phy"
	"selfishmac/internal/plot"
	"selfishmac/internal/rng"
	"selfishmac/internal/search"
)

// SearchAlgorithm reproduces Section V.C: the distributed efficient-NE
// search from several starting points over exact analytic payoffs, where
// it compares the paper's unit-step walk with the accelerated variant, and
// the paper walk over a broadcast medium that loses 20% of messages per
// follower (search.AnalyticEnv with drop as its only fault).
func SearchAlgorithm(ctx context.Context, s Settings) (*Report, error) {
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
	tb := plot.Table{
		Title:   fmt.Sprintf("Section V.C: NE search (n=10, RTS/CTS, exact NE=%d)", ne.WStar),
		Headers: []string{"environment", "variant", "start W0", "found", "probes", "payoff vs peak"},
	}
	rep := &Report{ID: "A1", Title: "Efficient-NE search"}
	record := func(envName, variant string, w0 int, res search.Result) error {
		u, err := g.UniformUtilityRate(res.W)
		if err != nil {
			return err
		}
		tb.MustAddRow(envName, variant, fmt.Sprintf("%d", w0), fmt.Sprintf("%d", res.W),
			fmt.Sprintf("%d", res.ProbeCount()), fmt.Sprintf("%.4f", u/ne.UStar))
		key := fmt.Sprintf("%s_%s_w0_%d", envName, variant, w0)
		rep.Metric(key+"_found", float64(res.W))
		rep.Metric(key+"_probes", float64(res.ProbeCount()))
		rep.Metric(key+"_payoff_ratio", u/ne.UStar)
		return nil
	}

	starts := []int{4, 16, ne.WStar + 40}
	for _, w0 := range starts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		env, err := search.NewAnalyticEnv(g, 0, w0, search.FaultConfig{})
		if err != nil {
			return nil, err
		}
		res, err := search.Run(env, 0, w0, search.Options{WMax: g.Config().WMax})
		if err != nil {
			return nil, err
		}
		if err := record("exact", "paper", w0, res); err != nil {
			return nil, err
		}
		envF, err := search.NewAnalyticEnv(g, 0, w0, search.FaultConfig{})
		if err != nil {
			return nil, err
		}
		fast, err := search.AcceleratedSearch(envF, 0, w0, search.Options{WMax: g.Config().WMax})
		if err != nil {
			return nil, err
		}
		if err := record("exact", "accel", w0, fast); err != nil {
			return nil, err
		}
	}

	// Lossy broadcast medium.
	for _, w0 := range []int{8, ne.WStar + 40} {
		lossy, err := search.NewAnalyticEnv(g, 0, w0,
			search.FaultConfig{Seed: rng.DeriveSeed(s.Seed, "A1.lossy", w0), DropProb: 0.2})
		if err != nil {
			return nil, err
		}
		res, err := search.Run(lossy, 0, w0, search.Options{WMax: g.Config().WMax})
		if err != nil {
			return nil, err
		}
		if err := record("lossy20", "paper", w0, res); err != nil {
			return nil, err
		}
	}

	rep.Text = tb.Render()
	return rep, nil
}

// TFTConvergence reproduces the Section IV convergence claims: TFT drives
// heterogeneous initial CWs to the minimum within one stage in a
// single-hop network; GTFT's tolerance absorbs observation noise that
// makes plain TFT ratchet downward.
func TFTConvergence(ctx context.Context, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g, err := core.NewGame(core.DefaultConfig(6, phy.Basic))
	if err != nil {
		return nil, err
	}
	ne, err := g.FindEfficientNE()
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "A5", Title: "TFT/GTFT convergence"}
	var text []string

	// (a) Plain TFT from heterogeneous starts.
	r := rng.New(rng.DeriveSeed(s.Seed, "A5.start", 0))
	initial := make([]core.Strategy, 6)
	minW := int(^uint(0) >> 1)
	for i := range initial {
		w0 := ne.WStar/2 + r.Intn(ne.WStar)
		if w0 < minW {
			minW = w0
		}
		initial[i] = core.TFT{Initial: w0}
	}
	eng, err := core.NewEngine(g, initial)
	if err != nil {
		return nil, err
	}
	tr, err := eng.Run(8)
	if err != nil {
		return nil, err
	}
	text = append(text, fmt.Sprintf("TFT heterogeneous start: converged at stage %d to CW %d (expected min %d)",
		tr.ConvergedAt, tr.ConvergedCW, minW))
	rep.Metric("tft_converged_stage", float64(tr.ConvergedAt))
	rep.Metric("tft_converged_cw", float64(tr.ConvergedCW))
	rep.Metric("tft_expected_min", float64(minW))

	// (b) TFT vs GTFT under observation noise.
	noise := func(src *rng.Source, w int) int {
		return int(float64(w) * src.UniformRange(0.85, 1.15))
	}
	runNoisy := func(strats []core.Strategy) (int, error) {
		e, err := core.NewEngine(g, strats, core.WithNoise(noise), core.WithSeed(rng.DeriveSeed(s.Seed, "A5.noise", 0)))
		if err != nil {
			return 0, err
		}
		trace, err := e.Run(50)
		if err != nil {
			return 0, err
		}
		final := trace.FinalProfile()
		minW := final[0]
		for _, w := range final {
			if w < minW {
				minW = w
			}
		}
		return minW, nil
	}
	tftStrats := make([]core.Strategy, 6)
	gtftStrats := make([]core.Strategy, 6)
	for i := range tftStrats {
		tftStrats[i] = core.TFT{Initial: ne.WStar}
		gtftStrats[i] = core.GTFT{Initial: ne.WStar, R0: 5, Beta: 0.8}
	}
	tftFinal, err := runNoisy(tftStrats)
	if err != nil {
		return nil, err
	}
	gtftFinal, err := runNoisy(gtftStrats)
	if err != nil {
		return nil, err
	}
	text = append(text, fmt.Sprintf("under ±15%% observation noise, 50 stages: TFT drifts to CW %d; GTFT(r0=5, β=0.8) holds at CW %d (start %d)",
		tftFinal, gtftFinal, ne.WStar))
	rep.Metric("noisy_tft_final", float64(tftFinal))
	rep.Metric("noisy_gtft_final", float64(gtftFinal))
	rep.Metric("wcstar", float64(ne.WStar))

	// (c) GTFT tolerance sweep: how much noise each (r0, beta) absorbs.
	tb := plot.Table{
		Title:   "GTFT tolerance sweep (final min CW after 50 noisy stages, start Wc*)",
		Headers: []string{"r0", "beta", "final CW", "held"},
	}
	for _, r0 := range []int{1, 3, 5} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, beta := range []float64{0.95, 0.9, 0.8} {
			strats := make([]core.Strategy, 6)
			for i := range strats {
				strats[i] = core.GTFT{Initial: ne.WStar, R0: r0, Beta: beta}
			}
			final, err := runNoisy(strats)
			if err != nil {
				return nil, err
			}
			held := final >= ne.WStar*9/10
			tb.MustAddRow(fmt.Sprintf("%d", r0), fmt.Sprintf("%g", beta),
				fmt.Sprintf("%d", final), fmt.Sprintf("%v", held))
			rep.Metric(fmt.Sprintf("gtft_r0%d_beta%g_final", r0, beta), float64(final))
		}
	}
	text = append(text, tb.Render())
	rep.Text = strings.Join(text, "\n")
	return rep, nil
}
