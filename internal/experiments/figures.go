package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"selfishmac/internal/backoff"
	"selfishmac/internal/core"
	"selfishmac/internal/macsim"
	"selfishmac/internal/parallel"
	"selfishmac/internal/phy"
	"selfishmac/internal/plot"
	"selfishmac/internal/replicate"
	"selfishmac/internal/stats"
)

// figureSeries is one population's analytic curve with its rendered CSV
// and headline metrics, produced independently per index so the series
// can be computed in parallel and assembled in deterministic order.
type figureSeries struct {
	label   string
	xs, ys  []float64
	csvName string
	csv     string
	metrics []struct {
		key string
		v   float64
	}
}

// figure computes the paper's Figures 2/3: normalized global payoff U/C as
// a function of the common CW value, one series per population size.
func figure(ctx context.Context, id, title string, mode phy.AccessMode, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	chart := plot.Chart{
		Title:  title,
		XLabel: "contention window W (log scale)",
		YLabel: "global payoff U/C",
		LogX:   true,
		Width:  76,
		Height: 22,
	}
	rep := &Report{ID: id, Title: title}
	// Hoist game construction (and the Bianchi model each game owns) out
	// of the fan-out: the per-grid-point work below is pure solver-cache
	// lookups on these shared games.
	games := make([]*core.Game, len(tablePopulations))
	nes := make([]core.NE, len(tablePopulations))
	for k, n := range tablePopulations {
		g, err := core.NewGame(core.DefaultConfig(n, mode))
		if err != nil {
			return nil, err
		}
		ne, err := g.FindPaperNE()
		if err != nil {
			return nil, err
		}
		games[k], nes[k] = g, ne
	}
	series := make([]figureSeries, len(tablePopulations))
	err := parallel.ForEach(ctx, len(tablePopulations), s.Workers, func(_, k int) error {
		n := tablePopulations[k]
		out := &series[k]
		g, ne := games[k], nes[k]
		// Log-spaced CW grid covering the peak comfortably.
		wMax := ne.WStar * 8
		if wMax < 64 {
			wMax = 64
		}
		xs, ys, err := payoffCurve(ctx, g, wMax, s.FigurePoints, s.Workers)
		if err != nil {
			return err
		}
		out.label = fmt.Sprintf("n=%d (Wc*=%d)", n, ne.WStar)
		out.xs, out.ys = xs, ys
		var csv strings.Builder
		if err := plot.WriteCSV(&csv, []string{"w", "uc"}, xs, ys); err != nil {
			return err
		}
		out.csvName = fmt.Sprintf("%s_n%d.csv", strings.ToLower(id), n)
		out.csv = csv.String()

		// Headline metrics: peak location/value and plateau flatness
		// (payoff retention at 0.5x and 2x the NE CW).
		peakW, peakU, ok := curvePeak(xs, ys)
		if !ok {
			return fmt.Errorf("%s: payoff curve for n=%d: %w", id, n, errEmptySeries)
		}
		addMetric := func(key string, v float64) {
			out.metrics = append(out.metrics, struct {
				key string
				v   float64
			}{key, v})
		}
		addMetric(fmt.Sprintf("n%d_peak_w", n), peakW)
		addMetric(fmt.Sprintf("n%d_peak_uc", n), peakU)
		for _, f := range []float64{0.5, 2} {
			u, err := g.NormalizedGlobalPayoff(int(float64(ne.WStar)*f + 0.5))
			if err != nil {
				return err
			}
			addMetric(fmt.Sprintf("n%d_retention_%gx", n, f), u/peakU)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, sr := range series {
		chart.Add(sr.label, sr.xs, sr.ys)
		rep.Artifacts = append(rep.Artifacts, Artifact{Name: sr.csvName, Content: sr.csv})
		for _, m := range sr.metrics {
			rep.Metric(m.key, m.v)
		}
	}
	// Overlay a simulated U/C series for n = 20: the event-driven
	// simulator independently traces the same curve, validating the
	// analytic figure end to end. U/C = (global payoff rate)·σ/g. Each
	// operating point is a replicated measurement (internal/replicate)
	// with its CI95 half-width and replication count in the artifact.
	simIdx := -1
	for k, n := range tablePopulations {
		if n == 20 {
			simIdx = k
		}
	}
	if simIdx < 0 {
		return nil, fmt.Errorf("%s: simulated overlay: population 20 missing", id)
	}
	sim, err := simulatedCurve(ctx, id, games[simIdx], 20, s)
	if err != nil {
		return nil, err
	}
	if len(sim.xs) == 0 {
		return nil, fmt.Errorf("%s: simulated overlay: %w", id, errEmptySeries)
	}
	chart.Add("n=20 simulated", sim.xs, sim.ys)
	rep.Metric("n20_sim_vs_analytic_maxrel", sim.maxRel)
	rep.Metric("n20_sim_ci95_max", sim.maxCI)
	rep.Metric("n20_sim_reps_total", float64(sim.repsTotal))
	var simCSV strings.Builder
	if err := plot.WriteCSV(&simCSV, []string{"w", "uc_sim", "ci95", "reps"},
		sim.xs, sim.ys, sim.cis, sim.reps); err != nil {
		return nil, err
	}
	rep.Artifacts = append(rep.Artifacts, Artifact{
		Name:    strings.ToLower(id) + "_n20_sim.csv",
		Content: simCSV.String(),
	})

	text, err := chart.Render()
	if err != nil {
		return nil, err
	}
	rep.Text = text
	return rep, nil
}

// simCurve is the simulated overlay: per operating point the mean U/C,
// its CI95 half-width and the replication count spent on it.
type simCurve struct {
	xs, ys, cis, reps []float64
	maxRel, maxCI     float64
	repsTotal         int
}

// simulatedCurve measures U/C at ~9 log-spaced CW values with the MAC
// simulator and returns the series plus the maximum relative deviation
// from the analytic curve (computed on the replicated means). The
// simulator runs with the game's timing, gain and cost (it used to
// hardcode g = 1, e = 0.01, silently diverging from the analytic overlay
// for any non-default config). Each operating point is replicated over
// its own derived seed stream by internal/replicate — reusable engines,
// deterministic at any worker count, adaptive precision when the
// settings enable it.
func simulatedCurve(ctx context.Context, id string, g *core.Game, n int, s Settings) (*simCurve, error) {
	cfg := g.Config()
	ne, err := g.FindPaperNE()
	if err != nil {
		return nil, err
	}
	duration := s.SingleHopSimTime
	if duration > 200e6 {
		duration = 200e6 // the curve needs shape, not 1000 s per point
	}
	grid := logGrid(ne.WStar*6, 9)
	scale := g.Model().Timing.Slot / cfg.Gain // payoff rate -> U/C
	out := &simCurve{
		xs:   make([]float64, len(grid)),
		ys:   make([]float64, len(grid)),
		cis:  make([]float64, len(grid)),
		reps: make([]float64, len(grid)),
	}
	for i, w := range grid {
		rres, err := replicate.Run(ctx, s.plan(fmt.Sprintf("%s.sim.w%d", id, w), 1), func() (replicate.Replicator, error) {
			eng, err := macsim.NewEngine(macsim.Config{Run: g.SimRun(backoff.Uniform(w, n), duration, 0)})
			if err != nil {
				return nil, err
			}
			// One replication is Reset(seed)+Run, reported as normalized U/C.
			return func(seed uint64, out []float64) error {
				eng.Reset(seed)
				out[0] = eng.Run().GlobalPayoffRate() * scale
				return nil
			}, nil
		})
		if err != nil {
			return nil, err
		}
		uc := rres.Mean(0)
		out.xs[i] = float64(w)
		out.ys[i] = uc
		out.cis[i] = rres.CI95(0)
		out.reps[i] = float64(rres.Reps)
		out.repsTotal += rres.Reps
		if out.cis[i] > out.maxCI {
			out.maxCI = out.cis[i]
		}
		analytic, err := g.NormalizedGlobalPayoff(w)
		if err != nil {
			return nil, err
		}
		if rel := stats.RelErr(uc, analytic); rel > out.maxRel {
			out.maxRel = rel
		}
	}
	return out, nil
}

// logGrid returns the log-spaced CW grid round(wMax^(i/(points−1))),
// i = 0 … points−1, without repeats. For wMax >= 1 it ascends from 1 to
// wMax, so a repeat can only follow its twin.
func logGrid(wMax, points int) []int {
	var grid []int
	for i := 0; i < points; i++ {
		w := int(math.Round(math.Pow(float64(wMax), float64(i)/float64(points-1))))
		if len(grid) == 0 || w != grid[len(grid)-1] {
			grid = append(grid, w)
		}
	}
	return grid
}

// payoffCurve evaluates U/C on a log grid of CW values in [1, wMax],
// fanning the independent solves over the worker pool. The different
// series lengths per n are intentional (each spans its own peak), so the
// CSV writes per-series x columns.
func payoffCurve(ctx context.Context, g *core.Game, wMax, points, workers int) (xs, ys []float64, err error) {
	grid := logGrid(wMax, points)
	xs = make([]float64, len(grid))
	ys = make([]float64, len(grid))
	// One fixed-point solve is microseconds of work; batch several per
	// pool task so dispatch overhead is amortized across the grid.
	const solveBatch = 8
	batches := (len(grid) + solveBatch - 1) / solveBatch
	err = parallel.ForEach(ctx, batches, workers, func(_, b int) error {
		for i := b * solveBatch; i < min((b+1)*solveBatch, len(grid)); i++ {
			u, err := g.NormalizedGlobalPayoff(grid[i])
			if err != nil {
				return err
			}
			xs[i] = float64(grid[i])
			ys[i] = u
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return xs, ys, nil
}

// errEmptySeries is the sentinel curvePeak reports through its ok result;
// figure() turns it into a proper error instead of the old panic.
var errEmptySeries = errors.New("experiments: empty series")

// curvePeak returns the (x, y) of the maximum y. ok is false — and both
// coordinates are NaN — when the series is empty; it used to panic.
func curvePeak(xs, ys []float64) (x, y float64, ok bool) {
	if len(xs) == 0 || len(ys) == 0 {
		return math.NaN(), math.NaN(), false
	}
	x, y = xs[0], ys[0]
	for i := range xs {
		if ys[i] > y {
			x, y = xs[i], ys[i]
		}
	}
	return x, y, true
}

// Figure2 reproduces Figure 2 (basic access).
func Figure2(ctx context.Context, s Settings) (*Report, error) {
	return figure(ctx, "F2", "Figure 2: global payoff vs CW value, basic case", phy.Basic, s)
}

// Figure3 reproduces Figure 3 (RTS/CTS).
func Figure3(ctx context.Context, s Settings) (*Report, error) {
	return figure(ctx, "F3", "Figure 3: global payoff vs CW value, RTS/CTS case", phy.RTSCTS, s)
}
