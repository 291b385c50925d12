package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"selfishmac/internal/core"
	"selfishmac/internal/detect"
	"selfishmac/internal/macsim"
	"selfishmac/internal/phy"
	"selfishmac/internal/plot"
	"selfishmac/internal/replicate"
	"selfishmac/internal/rng"
)

// ClosedLoop (D2) runs the full pipeline the paper sketches but never
// assembles: each stage the network is *simulated*, every node estimates
// its peers' CW values from promiscuous attempt counts (internal/detect),
// and the TFT/GTFT strategies act on those *estimates* instead of oracle
// observations. The question: does the TFT equilibrium survive when
// observation is a noisy measurement rather than an assumption?
//
// Finding: plain TFT does NOT survive honest measurement — matching the
// minimum of n noisy estimates is a downward ratchet of roughly one
// estimation-sigma per stage, and driving sigma low enough would need
// stage lengths in the thousands of seconds (detect.RequiredSlots), far
// beyond the paper's T = 10 s. GTFT's averaging window and tolerance
// absorb the noise at practical stage lengths. In this reproduction the
// paper's "in practice … a more tolerant version" remark is therefore a
// necessity, not an optimization.
func ClosedLoop(ctx context.Context, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	const n = 6
	g, err := core.NewGame(core.DefaultConfig(n, phy.Basic))
	if err != nil {
		return nil, err
	}
	ne, err := g.FindEfficientNE()
	if err != nil {
		return nil, err
	}

	tb := plot.Table{
		Title:   fmt.Sprintf("Closed loop: strategies on estimated observations (n=%d, start Wc*=%d, 25 stages)", n, ne.WStar),
		Headers: []string{"strategy", "stage window (s)", "final min CW", "ci95", "reps", "held NE"},
	}
	rep := &Report{ID: "D2", Title: "Closed-loop TFT on estimated CWs"}

	for _, tc := range []struct {
		name   string
		mk     func() core.Strategy
		window float64 // stage measurement time in seconds
		metric string
	}{
		{"tft", func() core.Strategy { return core.TFT{Initial: ne.WStar} }, 60, "tft_60s"},
		{"tft", func() core.Strategy { return core.TFT{Initial: ne.WStar} }, 10, "tft_10s"},
		{"gtft(r0=5,b=0.8)", func() core.Strategy { return core.GTFT{Initial: ne.WStar, R0: 5, Beta: 0.8} }, 10, "gtft_10s"},
	} {
		// Each case is a replicated measurement: independent 25-stage
		// closed-loop runs on derived seeds (replication 0 reuses the
		// stream of the previous single-run implementation), reported as
		// the mean final minimum CW with its CI95 half-width.
		measure := func(seed uint64, out []float64) error {
			strats := make([]core.Strategy, n)
			for i := range strats {
				strats[i] = tc.mk()
			}
			final, err := runClosedLoop(g, strats, tc.window*1e6, 25, seed)
			if err != nil {
				return err
			}
			minW := final[0]
			for _, w := range final {
				if w < minW {
					minW = w
				}
			}
			out[0] = float64(minW)
			return nil
		}
		rres, err := replicate.Run(ctx, s.plan("D2."+tc.metric, 1), func() (replicate.Replicator, error) { return measure, nil })
		if err != nil {
			return nil, err
		}
		meanMin := rres.Mean(0)
		held := meanMin >= float64(ne.WStar)*0.9
		tb.MustAddRow(tc.name, fmt.Sprintf("%.0f", tc.window), fmt.Sprintf("%.1f", meanMin),
			fmt.Sprintf("%.2f", rres.CI95(0)), fmt.Sprintf("%d", rres.Reps), fmt.Sprintf("%v", held))
		rep.Metric(tc.metric+"_final_min_cw", meanMin)
		rep.Metric(tc.metric+"_ci95", rres.CI95(0))
		rep.Metric(tc.metric+"_reps", float64(rres.Reps))
	}
	var text strings.Builder
	text.WriteString(tb.Render())
	text.WriteString("\nreading: plain TFT ratchets downward under honest CW estimation at any\n")
	text.WriteString("practical stage length (min-of-n noisy estimates is biased low every\n")
	text.WriteString("stage); the paper's GTFT tolerance is what actually stabilizes the NE.\n")
	rep.Text = text.String()
	rep.Metric("wcstar", float64(ne.WStar))
	return rep, nil
}

// GTFTTradeoff (D3) quantifies the other side of D2's coin: GTFT's
// tolerance, which D2 shows is necessary against measurement noise, also
// *delays the punishment of real cheaters*. For a grid of (r0, β) it
// reports how many stages a genuine undercutter enjoys before the network
// reacts, and the extra discounted profit that lag hands it (Section V.D:
// a longer lag strictly helps the deviator).
func GTFTTradeoff(ctx context.Context, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	const n = 6
	g, err := core.NewGame(core.DefaultConfig(n, phy.Basic))
	if err != nil {
		return nil, err
	}
	ne, err := g.FindEfficientNE()
	if err != nil {
		return nil, err
	}
	cheatW := ne.WStar / 3
	// The cheater conforms for warmup stages (filling every GTFT window
	// with clean history), then undercuts forever. The windowed mean then
	// decays linearly, so the reaction lag grows with r0 and with
	// tolerance — a persistent cheat from stage 0 would trip any window
	// immediately and hide the trade-off.
	const warmup = 10

	tb := plot.Table{
		Title: fmt.Sprintf("GTFT tolerance vs reaction: cheater drops to W=%d after %d clean stages (Wc*=%d)",
			cheatW, warmup, ne.WStar),
		Headers: []string{"r0", "beta", "stages before reaction", "cheater gain ratio"},
	}
	rep := &Report{ID: "D3", Title: "GTFT tolerance/reaction trade-off"}
	for _, r0 := range []int{1, 3, 5, 8} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, beta := range []float64{0.9, 0.8, 0.6} {
			strats := make([]core.Strategy, n)
			strats[0] = core.Deviant{Deviation: ne.WStar, Base: cheatW, Stages: warmup}
			for i := 1; i < n; i++ {
				strats[i] = core.GTFT{Initial: ne.WStar, R0: r0, Beta: beta}
			}
			eng, err := core.NewEngine(g, strats)
			if err != nil {
				return nil, err
			}
			tr, err := eng.Run(40 + warmup)
			if err != nil {
				return nil, err
			}
			lag := reactionStage(tr, ne.WStar) - warmup
			// The Section V.D payoff with the measured lag, for a fairly
			// patient cheater.
			res, err := g.ShortSightedBest(ne, 0.9, max(lag, 1))
			if err != nil {
				return nil, err
			}
			tb.MustAddRow(fmt.Sprintf("%d", r0), fmt.Sprintf("%g", beta),
				fmt.Sprintf("%d", lag), fmt.Sprintf("%.3f", res.GainRatio))
			rep.Metric(fmt.Sprintf("r0%d_beta%g_lag", r0, beta), float64(lag))
			rep.Metric(fmt.Sprintf("r0%d_beta%g_gain", r0, beta), res.GainRatio)
		}
	}
	var text strings.Builder
	text.WriteString(tb.Render())
	text.WriteString("\nreading: larger averaging windows (r0) and looser tolerances (smaller\n")
	text.WriteString("beta) buy noise immunity (D2) at the price of slower punishment, which\n")
	text.WriteString("Section V.D shows hands a patient cheater strictly more profit — the\n")
	text.WriteString("designer's dial between robustness and deterrence.\n")
	rep.Text = text.String()
	return rep, nil
}

// reactionStage returns the first stage at which any conforming player
// (index >= 1) moved below the initial CW, or the trace length if never.
func reactionStage(tr *core.Trace, initial int) int {
	for k, st := range tr.Stages {
		for i := 1; i < len(st.Profile); i++ {
			if st.Profile[i] < initial {
				return k
			}
		}
	}
	return len(tr.Stages)
}

// runClosedLoop plays stages on core's stage loop where observations are
// CW *estimates* from simulated promiscuous counts. It returns the final
// CW profile.
//
// Each stage runs on a fresh engine (macsim.Run): a stage simulates
// seconds of MAC time, so the engine's setup is noise against it.
func runClosedLoop(g *core.Game, strategies []core.Strategy, stageTime float64, stages int, seed uint64) ([]int, error) {
	n := len(strategies)
	stage := func(k int, profile []int) (core.StageRecord, [][]int, error) {
		res, err := macsim.Run(macsim.Config{Run: g.SimRun(profile, stageTime, rng.DeriveSeed(seed, "closedloop.stage", k))})
		if err != nil {
			return core.StageRecord{}, nil, err
		}
		ests, err := detect.EstimateAll(detect.FromSimResult(res), g.Model().MaxStage)
		if err != nil {
			// A stage can be too short for any estimate (a node that
			// never transmitted); treat it as "no new information".
			ests = nil
		}
		rates, views := make([]float64, n), make([][]int, n)
		for i := range views {
			obs := make([]int, n)
			for j := range obs {
				switch {
				case i == j:
					obs[j] = profile[j] // own CW known exactly
				case ests != nil:
					obs[j] = int(math.Round(ests[j].CW))
				default:
					obs[j] = profile[i] // no estimate: assume conformance
				}
				obs[j] = max(obs[j], 1)
			}
			views[i] = obs
			rates[i] = res.Nodes[i].PayoffRate
		}
		return core.StageRecord{UtilityRates: rates}, views, nil
	}
	tr, err := core.Loop{Strategies: strategies, Stage: stage}.Run(stages)
	if err != nil {
		return nil, err
	}
	return tr.FinalProfile(), nil
}
