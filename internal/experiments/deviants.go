package experiments

import (
	"context"
	"fmt"
	"strings"

	"selfishmac/internal/core"
	"selfishmac/internal/phy"
	"selfishmac/internal/plot"
	"selfishmac/internal/rng"
)

// ShortSighted reproduces the Section V.D analysis: for a range of
// deviator discount factors δ_s and TFT reaction lags, the
// payoff-maximizing deviation W_s, the gain it yields over honesty, and
// the damage the eventual collapse inflicts on the network.
func ShortSighted(ctx context.Context, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g, err := core.NewGame(core.DefaultConfig(10, phy.Basic))
	if err != nil {
		return nil, err
	}
	ne, err := g.FindEfficientNE()
	if err != nil {
		return nil, err
	}
	deltas := []float64{0, 0.3, 0.6, 0.9, 0.99, 0.999, 0.9999}
	lags := []int{1, 2, 5}
	tb := plot.Table{
		Title:   fmt.Sprintf("Section V.D: short-sighted deviator (n=10, basic, Wc*=%d)", ne.WStar),
		Headers: []string{"delta_s", "lag", "best Ws", "gain ratio", "global loss"},
	}
	rep := &Report{ID: "A2", Title: "Short-sighted players"}
	var dcol, lcol, wcol, gcol, losscol []float64
	for _, lag := range lags {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, d := range deltas {
			res, err := g.ShortSightedBest(ne, d, lag)
			if err != nil {
				return nil, err
			}
			tb.MustAddRow(
				fmt.Sprintf("%g", d),
				fmt.Sprintf("%d", lag),
				fmt.Sprintf("%d", res.WBest),
				fmt.Sprintf("%.4f", res.GainRatio),
				fmt.Sprintf("%.4f", res.GlobalLossFrac),
			)
			dcol = append(dcol, d)
			lcol = append(lcol, float64(lag))
			wcol = append(wcol, float64(res.WBest))
			gcol = append(gcol, res.GainRatio)
			losscol = append(losscol, res.GlobalLossFrac)
		}
	}
	rep.Text = tb.Render()
	myopic, err := g.ShortSightedBest(ne, 0, 1)
	if err != nil {
		return nil, err
	}
	patient, err := g.ShortSightedBest(ne, 0.9999, 1)
	if err != nil {
		return nil, err
	}
	rep.Metric("wcstar", float64(ne.WStar))
	rep.Metric("myopic_best_ws", float64(myopic.WBest))
	rep.Metric("myopic_gain_ratio", myopic.GainRatio)
	rep.Metric("myopic_global_loss", myopic.GlobalLossFrac)
	rep.Metric("patient_best_ws", float64(patient.WBest))
	rep.Metric("patient_gain_ratio", patient.GainRatio)
	var csv strings.Builder
	if err := plot.WriteCSV(&csv, []string{"delta_s", "lag", "best_ws", "gain_ratio", "global_loss"},
		dcol, lcol, wcol, gcol, losscol); err != nil {
		return nil, err
	}
	rep.Artifacts = append(rep.Artifacts, Artifact{Name: "a2_short_sighted.csv", Content: csv.String()})
	return rep, nil
}

// Malicious reproduces the Section V.E analysis: a player pins its CW
// below Wc*; TFT drags everyone down; global payoff collapses as the
// malicious CW shrinks. With frozen backoff (m = 0) small CWs paralyze the
// network outright (negative payoff), matching the paper's strongest
// claim.
func Malicious(ctx context.Context, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{ID: "A3", Title: "Malicious players"}
	var allText []string
	for _, variant := range []struct {
		label    string
		maxStage int
	}{
		{"default backoff (m=6)", 6},
		{"frozen backoff (m=0)", 0},
	} {
		cfg := core.DefaultConfig(10, phy.Basic)
		cfg.PHY.MaxBackoffStage = variant.maxStage
		g, err := core.NewGame(cfg)
		if err != nil {
			return nil, err
		}
		ne, err := g.FindEfficientNE()
		if err != nil {
			return nil, err
		}
		tb := plot.Table{
			Title:   fmt.Sprintf("Section V.E: malicious player, %s (Wc*=%d)", variant.label, ne.WStar),
			Headers: []string{"W_mal", "global @NE", "global transient", "global collapsed", "paralyzed"},
		}
		var wcol, collapsed []float64
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, w := range []int{1, 2, 4, 8, 16, 32, 64} {
			res, err := g.MaliciousImpact(ne, w)
			if err != nil {
				return nil, err
			}
			tb.MustAddRow(
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%.3e", res.GlobalAtNE),
				fmt.Sprintf("%.3e", res.GlobalTransient),
				fmt.Sprintf("%.3e", res.GlobalCollapsed),
				fmt.Sprintf("%v", res.Paralyzed),
			)
			wcol = append(wcol, float64(w))
			collapsed = append(collapsed, res.GlobalCollapsed)
			if variant.maxStage == 0 && w == 1 {
				rep.Metric("m0_w1_paralyzed", boolMetric(res.Paralyzed))
			}
			if variant.maxStage == 6 && w == 4 {
				rep.Metric("m6_w4_damage_frac", 1-res.GlobalCollapsed/res.GlobalAtNE)
			}
		}
		allText = append(allText, tb.Render())
		var csv strings.Builder
		if err := plot.WriteCSV(&csv, []string{"w_mal", "global_collapsed"}, wcol, collapsed); err != nil {
			return nil, err
		}
		rep.Artifacts = append(rep.Artifacts, Artifact{
			Name:    fmt.Sprintf("a3_malicious_m%d.csv", variant.maxStage),
			Content: csv.String(),
		})
	}
	rep.Text = strings.Join(allText, "\n")
	return rep, nil
}

// LemmaChecks numerically verifies the orderings of Lemma 1 (heterogeneous
// profiles) and Lemma 4 (single deviations) over randomized instances,
// reporting violation counts (expected: zero).
func LemmaChecks(ctx context.Context, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	const trials = 300
	rep := &Report{ID: "A4", Title: "Lemma 1 & 4 orderings"}
	var text []string
	for _, mode := range []phy.AccessMode{phy.Basic, phy.RTSCTS} {
		g, err := core.NewGame(core.DefaultConfig(8, mode))
		if err != nil {
			return nil, err
		}
		lemma1Viol, lemma4Viol := 0, 0
		r := rng.New(rng.DeriveSeed(s.Seed, "A4", int(mode)))
		for trial := 0; trial < trials; trial++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Lemma 1 on a random heterogeneous profile.
			w := make([]int, 8)
			for i := range w {
				w[i] = 1 + r.Intn(900)
			}
			sol, err := g.Model().Solve(w)
			if err != nil {
				return nil, err
			}
			for i := range w {
				for j := range w {
					if w[i] > w[j] {
						if sol.P[i] < sol.P[j]-1e-12 || sol.Tau[i] > sol.Tau[j]+1e-12 {
							lemma1Viol++
						}
					}
				}
			}
			// Lemma 4 on a random single deviation.
			dev, err := g.Deviation(1+r.Intn(1200), 2+r.Intn(800))
			if err != nil {
				return nil, err
			}
			if !dev.SatisfiesLemma4() {
				lemma4Viol++
			}
		}
		text = append(text, fmt.Sprintf("%v: %d trials, lemma1 violations=%d, lemma4 violations=%d",
			mode, trials, lemma1Viol, lemma4Viol))
		rep.Metric(fmt.Sprintf("lemma1_violations_%s", modeKey(mode)), float64(lemma1Viol))
		rep.Metric(fmt.Sprintf("lemma4_violations_%s", modeKey(mode)), float64(lemma4Viol))
	}
	rep.Text = strings.Join(text, "\n") + "\n"
	return rep, nil
}

func modeKey(m phy.AccessMode) string {
	if m == phy.Basic {
		return "basic"
	}
	return "rtscts"
}
