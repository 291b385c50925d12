package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestSettingsValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		mutate func(*Settings)
		ok     bool
	}{
		{"quick", func(*Settings) {}, true},
		{"default", func(s *Settings) { *s = DefaultSettings() }, true},
		{"FigurePoints 5", func(s *Settings) { s.FigurePoints = 5 }, true},
		{"MultihopNodes 2", func(s *Settings) { s.MultihopNodes = 2 }, true},
		{"MinReps == MaxReps", func(s *Settings) { s.MinReps = s.MaxReps }, true},
		{"RelTolerance 0", func(s *Settings) { s.RelTolerance = 0 }, true},
		{"negative Workers", func(s *Settings) { s.Workers = -1 }, true},
		{"zero sim time", func(s *Settings) { s.SingleHopSimTime = 0 }, false},
		{"NaN single-hop sim time", func(s *Settings) { s.SingleHopSimTime = nan }, false},
		{"+Inf single-hop sim time", func(s *Settings) { s.SingleHopSimTime = inf }, false},
		{"zero multihop sim time", func(s *Settings) { s.MultihopSimTime = 0 }, false},
		{"NaN multihop sim time", func(s *Settings) { s.MultihopSimTime = nan }, false},
		{"+Inf multihop sim time", func(s *Settings) { s.MultihopSimTime = inf }, false},
		{"tiny figure", func(s *Settings) { s.FigurePoints = 4 }, false},
		{"single multihop node", func(s *Settings) { s.MultihopNodes = 1 }, false},
		{"MinReps 0", func(s *Settings) { s.MinReps = 0 }, false},
		{"MaxReps below MinReps", func(s *Settings) { s.MaxReps = s.MinReps - 1 }, false},
		{"negative RelTolerance", func(s *Settings) { s.RelTolerance = -0.1 }, false},
		{"NaN RelTolerance", func(s *Settings) { s.RelTolerance = nan }, false},
		{"+Inf RelTolerance", func(s *Settings) { s.RelTolerance = inf }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := QuickSettings()
			tc.mutate(&s)
			err := s.Validate()
			if tc.ok {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrInvalidSettings) {
				t.Fatalf("got %v, want an error wrapping ErrInvalidSettings", err)
			}
		})
	}
}

func TestReportMetricHelpers(t *testing.T) {
	var r Report
	r.Metric("b", 2)
	r.Metric("a", 1)
	s := r.MetricsSummary()
	if !strings.Contains(s, "a = 1") || !strings.Contains(s, "b = 2") {
		t.Fatalf("summary = %q", s)
	}
	if strings.Index(s, "a = 1") > strings.Index(s, "b = 2") {
		t.Fatal("metrics not sorted")
	}
}

func TestAllRegistryShape(t *testing.T) {
	rs := All()
	if len(rs) != 22 {
		t.Fatalf("registry has %d experiments, want 22", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if r.ID == "" || r.Name == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
	}
	for _, id := range []string{"T1", "T2", "T3", "F2", "F3", "M1", "M2", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "R1", "D1", "D2", "D3", "D4", "X1"} {
		if !seen[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

func TestTable1(t *testing.T) {
	rep, err := Table1(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"8184 bits", "1 Mbit/s", "8980 us", "8612 us", "9536 us", "416 us"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	if rep.Metrics["tc_rtscts_us"] != 416 {
		t.Errorf("tc_rtscts_us = %g", rep.Metrics["tc_rtscts_us"])
	}
}

func TestTable2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rep, err := Table2(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// Theory column tracks the paper within 5% (basic access).
	for _, n := range []int{5, 20, 50} {
		key := metricKeyPrefix(n)
		if rel := rep.Metrics[key+"rel_err_theory_vs_paper"]; rel > 0.05 {
			t.Errorf("n=%d: theory vs paper rel err %.3f", n, rel)
		}
		// Simulated mean near the theory value (flat peak + short sim:
		// generous 25% tolerance at quick settings).
		theory := rep.Metrics[key+"theory_wc"]
		sim := rep.Metrics[key+"sim_mean"]
		if math.Abs(sim-theory)/theory > 0.25 {
			t.Errorf("n=%d: sim mean %.1f far from theory %.0f", n, sim, theory)
		}
	}
	if len(rep.Artifacts) == 0 || !strings.Contains(rep.Artifacts[0].Content, "paper_wc") {
		t.Error("missing CSV artifact")
	}
}

func TestTable3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rep, err := Table3(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// The paper-matching cells: n=20 and n=50.
	for _, n := range []int{20, 50} {
		key := metricKeyPrefix(n)
		if rel := rep.Metrics[key+"rel_err_theory_vs_paper"]; rel > 0.08 {
			t.Errorf("n=%d: theory vs paper rel err %.3f", n, rel)
		}
	}
	// The documented n=5 deviation must be recorded, not hidden.
	if rel := rep.Metrics["n5_rel_err_theory_vs_paper"]; rel < 0.2 {
		t.Errorf("n=5 rel err %.3f unexpectedly small; DESIGN.md documents ~0.45", rel)
	}
}

func metricKeyPrefix(n int) string {
	switch n {
	case 5:
		return "n5_"
	case 20:
		return "n20_"
	default:
		return "n50_"
	}
}

func TestFigure2Quick(t *testing.T) {
	rep, err := Figure2(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "global payoff U/C") {
		t.Error("figure missing axis label")
	}
	if len(rep.Artifacts) != 4 {
		t.Fatalf("expected 3 analytic + 1 simulated CSVs, got %d", len(rep.Artifacts))
	}
	// The simulated overlay must track the analytic curve.
	if rel := rep.Metrics["n20_sim_vs_analytic_maxrel"]; rel > 0.15 {
		t.Errorf("simulated curve deviates %.3f from analytic", rel)
	}
	// Peak payoffs: U/C grows with... actually per the paper the global
	// payoff curves for different n have comparable heights; just check
	// positivity and that each peak sits near that population's Wc*.
	for _, n := range []int{5, 20, 50} {
		peak := rep.Metrics[metricKeyPrefix(n)+"peak_uc"]
		if peak <= 0 {
			t.Errorf("n=%d: peak U/C = %g", n, peak)
		}
		for _, f := range []float64{0.5, 2} {
			key := metricKeyPrefix(n) + "retention_" + trimFloat(f) + "x"
			ret := rep.Metrics[key]
			if ret <= 0.5 || ret > 1+1e-9 {
				t.Errorf("n=%d: retention at %gx = %g implausible", n, f, ret)
			}
		}
	}
}

func trimFloat(f float64) string {
	if f == 0.5 {
		return "0.5"
	}
	return "2"
}

func TestFigure3FlatterThanFigure2(t *testing.T) {
	s := QuickSettings()
	f2, err := Figure2(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := Figure3(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline contrast: the RTS/CTS payoff is far less
	// sensitive to the CW value than basic access. Compare retention at
	// 2x the NE CW for n=20.
	if f3.Metrics["n20_retention_2x"] <= f2.Metrics["n20_retention_2x"] {
		t.Errorf("RTS/CTS retention %.3f not above basic %.3f",
			f3.Metrics["n20_retention_2x"], f2.Metrics["n20_retention_2x"])
	}
	if f3.Metrics["n20_retention_2x"] < 0.97 {
		t.Errorf("RTS/CTS plateau retention %.3f, expected near-flat (>= 0.97)", f3.Metrics["n20_retention_2x"])
	}
}

func TestMultihopQuasiOptimalityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("spatial simulation")
	}
	rep, err := MultihopQuasiOptimality(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["wm"] < 2 {
		t.Errorf("converged Wm = %g implausible", rep.Metrics["wm"])
	}
	if rep.Metrics["global_ratio"] < 0.75 || rep.Metrics["global_ratio"] > 1+1e-9 {
		t.Errorf("global ratio %.3f outside plausible range", rep.Metrics["global_ratio"])
	}
	if rep.Metrics["tft_stages"] < 1 {
		t.Errorf("TFT stages = %g", rep.Metrics["tft_stages"])
	}
	if len(rep.Artifacts) == 0 {
		t.Error("missing per-node CSV")
	}
}

func TestHiddenNodeInvarianceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("spatial simulation")
	}
	rep, err := HiddenNodeInvariance(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// p_hn spread across moderate-to-large CW values should be small
	// (the paper's key approximation).
	if rep.Metrics["phn_spread"] > 0.08 {
		t.Errorf("p_hn spread %.4f too large for the independence approximation", rep.Metrics["phn_spread"])
	}
	if rep.Metrics["phn_min"] < 0.8 {
		t.Errorf("p_hn min %.4f suspiciously low under RTS/CTS", rep.Metrics["phn_min"])
	}
}

func TestSearchAlgorithmReport(t *testing.T) {
	rep, err := SearchAlgorithm(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// Every environment/start must land on the payoff plateau.
	for k, v := range rep.Metrics {
		if strings.HasSuffix(k, "_payoff_ratio") && v < 0.95 {
			t.Errorf("%s = %.3f below plateau", k, v)
		}
	}
	if !strings.Contains(rep.Text, "lossy20") {
		t.Error("lossy environment missing from report")
	}
}

func TestShortSightedReport(t *testing.T) {
	rep, err := ShortSighted(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["myopic_gain_ratio"] <= 1 {
		t.Errorf("myopic gain ratio %.3f, want > 1", rep.Metrics["myopic_gain_ratio"])
	}
	if rep.Metrics["patient_gain_ratio"] > 1.01 {
		t.Errorf("patient gain ratio %.3f, want ~<= 1", rep.Metrics["patient_gain_ratio"])
	}
	if rep.Metrics["myopic_best_ws"] >= rep.Metrics["wcstar"] {
		t.Error("myopic deviator should undercut Wc*")
	}
	if len(rep.Artifacts) == 0 {
		t.Error("missing CSV")
	}
}

func TestMaliciousReport(t *testing.T) {
	rep, err := Malicious(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["m0_w1_paralyzed"] != 1 {
		t.Error("m=0, W=1 attack should paralyze the network")
	}
	if rep.Metrics["m6_w4_damage_frac"] <= 0 {
		t.Error("m=6, W=4 attack should cause damage")
	}
	if len(rep.Artifacts) != 2 {
		t.Errorf("expected 2 CSVs, got %d", len(rep.Artifacts))
	}
}

func TestLemmaChecksReport(t *testing.T) {
	rep, err := LemmaChecks(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"lemma1_violations_basic", "lemma4_violations_basic",
		"lemma1_violations_rtscts", "lemma4_violations_rtscts",
	} {
		if rep.Metrics[k] != 0 {
			t.Errorf("%s = %g, want 0", k, rep.Metrics[k])
		}
	}
}

func TestBackoffStageAblationReport(t *testing.T) {
	rep, err := BackoffStageAblation(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// The NE must drift with m but only by a bounded fraction.
	if rep.Metrics["basic_wc_spread_frac"] <= 0 {
		t.Error("NE insensitive to m: suspicious")
	}
	if rep.Metrics["basic_wc_spread_frac"] > 0.25 {
		t.Errorf("NE spread across m = %.3f, larger than plausible", rep.Metrics["basic_wc_spread_frac"])
	}
	// Frozen backoff needs a larger initial CW to hit the same tau*.
	if rep.Metrics["basic_m0_wc"] <= rep.Metrics["basic_m8_wc"] {
		t.Errorf("m=0 Wc* %g should exceed m=8 Wc* %g", rep.Metrics["basic_m0_wc"], rep.Metrics["basic_m8_wc"])
	}
}

func TestCostTermAblationReport(t *testing.T) {
	rep, err := CostTermAblation(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// RTS/CTS drifts far in CW yet loses almost nothing in payoff.
	if rep.Metrics["rtscts_n20_cw_drift"] < 0.15 {
		t.Errorf("RTS/CTS n=20 drift %.3f, expected substantial", rep.Metrics["rtscts_n20_cw_drift"])
	}
	for _, k := range []string{"basic_n20_payoff_gap", "rtscts_n20_payoff_gap"} {
		if gap := rep.Metrics[k]; gap < 0 || gap > 0.01 {
			t.Errorf("%s = %.5f, want within [0, 1%%]", k, gap)
		}
	}
}

func TestRateControlReport(t *testing.T) {
	rep, err := RateControl(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"basic", "rtscts"} {
		if rep.Metrics[mode+"_poa"] <= 1.1 {
			t.Errorf("%s: price of anarchy %.3f, expected a real tragedy", mode, rep.Metrics[mode+"_poa"])
		}
		if rep.Metrics[mode+"_tft_gain"] <= 1 {
			t.Errorf("%s: TFT gain %.3f, want > 1", mode, rep.Metrics[mode+"_tft_gain"])
		}
		if rep.Metrics[mode+"_l_ne"] <= rep.Metrics[mode+"_l_social"] {
			t.Errorf("%s: NE payload not above social optimum", mode)
		}
	}
}

func TestDetectionReport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rep, err := Detection(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["true_positive_rate"] < 0.99 {
		t.Errorf("true positive rate %.3f, want ~1", rep.Metrics["true_positive_rate"])
	}
	if rep.Metrics["false_positives_total"] > 1 {
		t.Errorf("false positives %.0f, want <= 1", rep.Metrics["false_positives_total"])
	}
}

func TestClosedLoopReport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rep, err := ClosedLoop(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	wc := rep.Metrics["wcstar"]
	// Plain TFT on estimates ratchets downward at both stage lengths
	// (the headline finding), and longer windows only slow the drift.
	if rep.Metrics["tft_60s_final_min_cw"] >= 0.95*wc {
		t.Errorf("TFT at 60 s did not ratchet: %g (Wc* %g)", rep.Metrics["tft_60s_final_min_cw"], wc)
	}
	if rep.Metrics["tft_10s_final_min_cw"] > rep.Metrics["tft_60s_final_min_cw"] {
		t.Errorf("shorter windows should drift at least as far: 10s %g vs 60s %g",
			rep.Metrics["tft_10s_final_min_cw"], rep.Metrics["tft_60s_final_min_cw"])
	}
	// GTFT stabilizes the NE at the paper's T = 10 s.
	if rep.Metrics["gtft_10s_final_min_cw"] < 0.9*wc {
		t.Errorf("GTFT at 10 s drifted to %g (Wc* %g)", rep.Metrics["gtft_10s_final_min_cw"], wc)
	}
}

func TestGTFTTradeoffReport(t *testing.T) {
	rep, err := GTFTTradeoff(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// Larger windows react more slowly against a real cheater...
	if rep.Metrics["r01_beta0.8_lag"] >= rep.Metrics["r08_beta0.8_lag"] {
		t.Errorf("r0=8 lag %g not above r0=1 lag %g",
			rep.Metrics["r08_beta0.8_lag"], rep.Metrics["r01_beta0.8_lag"])
	}
	// ...and the slower reaction strictly helps the cheater.
	if rep.Metrics["r08_beta0.8_gain"] <= rep.Metrics["r01_beta0.8_gain"] {
		t.Errorf("longer lag gain %g not above shorter %g",
			rep.Metrics["r08_beta0.8_gain"], rep.Metrics["r01_beta0.8_gain"])
	}
	// A W/3 cheat is far outside any tested tolerance: every (r0, beta)
	// must eventually react.
	for _, r0 := range []int{1, 3, 5, 8} {
		if lag := rep.Metrics[fmt.Sprintf("r0%d_beta0.6_lag", r0)]; lag >= 40 {
			t.Errorf("r0=%d never reacted to a blatant cheat", r0)
		}
	}
}

func TestStreamingDetectionReport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rep, err := StreamingDetection(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// Blatant cheaters are caught at every tolerance, within the first
	// couple of windows.
	for _, mix := range []string{"malicious", "shortsighted"} {
		for _, b := range []string{"b50", "b70", "b90"} {
			if tpr := rep.Metrics[mix+"_"+b+"_tpr"]; tpr < 0.999 {
				t.Errorf("%s %s TPR %.3f, want 1", mix, b, tpr)
			}
		}
		if lat := rep.Metrics[mix+"_b50_latency_slots"]; lat > 2*streamDetectWindow {
			t.Errorf("%s flagged only after %.0f slots", mix, lat)
		}
	}
	// The all-honest population stays essentially unflagged at the
	// paper-faithful tolerance, and loosening Beta toward 1 can only
	// raise the false-alarm rate.
	if fpr := rep.Metrics["honest_b50_fpr"]; fpr > 0.03 {
		t.Errorf("honest mix FPR %.4f at beta 0.5", fpr)
	}
	if rep.Metrics["honest_b90_fpr"] < rep.Metrics["honest_b50_fpr"] {
		t.Error("raising beta lowered the honest false-alarm rate")
	}
	// The intelligent cheater (just under Wc*) is only separable at high
	// Beta: its detection coverage must not decrease with the tolerance.
	if rep.Metrics["intelligent_b90_tpr"] < rep.Metrics["intelligent_b50_tpr"] {
		t.Error("intelligent-cheater TPR fell as beta rose")
	}
	if rep.Metrics["intelligent_b90_tpr"] <= 0 {
		t.Error("intelligent cheater never detected even at beta 0.9")
	}
	if len(rep.Artifacts) != 1 || !strings.Contains(rep.Artifacts[0].Content, "latency_slots") {
		t.Error("missing CSV artifact")
	}
}

func TestPopulationMixReport(t *testing.T) {
	rep, err := PopulationMix(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// All-TFT populations hold the NE (retention 1).
	if rep.Metrics["k0_retention"] < 0.999 {
		t.Errorf("k=0 retention %.3f, want 1", rep.Metrics["k0_retention"])
	}
	// One myopic player already collapses the network to its Ws.
	if rep.Metrics["k1_converged_cw"] >= rep.Metrics["k0_converged_cw"] {
		t.Error("one myopic player did not drag the CW down")
	}
	if rep.Metrics["k1_retention"] >= 0.9 {
		t.Errorf("k=1 retention %.3f, expected substantial damage", rep.Metrics["k1_retention"])
	}
	// More myopic players cannot help.
	if rep.Metrics["k5_retention"] > rep.Metrics["k1_retention"]+0.05 {
		t.Error("more myopic players improved retention")
	}
}

func TestDelayAnalysisReport(t *testing.T) {
	rep, err := DelayAnalysis(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// Delay at the NE grows with the population.
	if rep.Metrics["basic_n50_delay_at_ne_ms"] <= rep.Metrics["basic_n5_delay_at_ne_ms"] {
		t.Error("delay at NE should grow with n")
	}
	// The delay-minimizing CW can only be at most slightly better.
	for _, k := range []string{"basic_n20_", "rtscts_n20_"} {
		if rep.Metrics[k+"delay_min_ms"] > rep.Metrics[k+"delay_at_ne_ms"]+1e-9 {
			t.Errorf("%s: min delay above NE delay", k)
		}
		if ratio := rep.Metrics[k+"payoff_ratio_at_delay_min"]; ratio > 1+1e-9 || ratio < 0.5 {
			t.Errorf("%s: payoff ratio at delay-min CW = %.3f implausible", k, ratio)
		}
	}
}

func TestTFTConvergenceReport(t *testing.T) {
	rep, err := TFTConvergence(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["tft_converged_cw"] != rep.Metrics["tft_expected_min"] {
		t.Errorf("TFT converged to %g, expected min %g",
			rep.Metrics["tft_converged_cw"], rep.Metrics["tft_expected_min"])
	}
	if rep.Metrics["tft_converged_stage"] != 1 {
		t.Errorf("single-hop TFT should converge at stage 1, got %g", rep.Metrics["tft_converged_stage"])
	}
	// GTFT must hold dramatically better than TFT under noise.
	if rep.Metrics["noisy_gtft_final"] <= rep.Metrics["noisy_tft_final"] {
		t.Errorf("GTFT final %g not above TFT final %g",
			rep.Metrics["noisy_gtft_final"], rep.Metrics["noisy_tft_final"])
	}
}

func TestRobustnessReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spatial simulation (churn section)")
	}
	rep, err := Robustness(context.Background(), QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	// The headline guarantee: within +/-2 of the fault-free NE at every
	// drop probability up to 0.3, never degraded (no budget configured).
	for _, key := range []string{"drop00_", "drop10_", "drop20_", "drop30_"} {
		if e := rep.Metrics[key+"abs_err"]; e > 2 {
			t.Errorf("%sabs_err = %g, want <= 2", key, e)
		}
		if rep.Metrics[key+"degraded"] != 0 {
			t.Errorf("%sdegraded set without a probe budget", key)
		}
	}
	// Median-of-3 must hold the NE under pure outlier noise too.
	for _, key := range []string{"noise00_", "noise10_", "noise20_", "noise30_"} {
		if e := rep.Metrics[key+"abs_err"]; e > 2 {
			t.Errorf("%sabs_err = %g, want <= 2", key, e)
		}
	}
	// Leader crash: the deputy finishes near the NE.
	if rep.Metrics["crash_failed_over"] != 1 {
		t.Error("leader crash scenario did not fail over")
	}
	if e := rep.Metrics["crash_abs_err"]; e > 2 {
		t.Errorf("crash_abs_err = %g, want <= 2", e)
	}
	// Probe budget: degraded best-so-far, not an error.
	if rep.Metrics["budget_degraded"] != 1 {
		t.Error("exhausted probe budget did not set Degraded")
	}
	if w := rep.Metrics["budget_found_w"]; w < 8 {
		t.Errorf("budget_found_w = %g below the starting CW", w)
	}
	// Churn: the churn-free run must converge; churn runs must at least
	// report their outcome (convergence is not guaranteed at high churn).
	if rep.Metrics["churn00_converged_at"] < 0 {
		t.Error("churn-free TFT run did not converge")
	}
	if len(rep.Artifacts) == 0 {
		t.Error("missing drop-sweep CSV artifact")
	}
}

// TestParallelMatchesSerial pins the determinism contract of the worker
// pools: every experiment must produce bit-identical reports (text,
// metrics, artifact bytes) at Workers=1 and Workers=4. Each parallel run
// writes only index-owned slots and draws from per-index derived seed
// streams, so worker count can only change wall-clock, never results.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			serial := QuickSettings()
			serial.Workers = 1
			parallel := QuickSettings()
			parallel.Workers = 4
			want, err := r.Run(context.Background(), serial)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			got, err := r.Run(context.Background(), parallel)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if got.Text != want.Text {
				t.Errorf("report text differs between Workers=1 and Workers=4")
			}
			if len(got.Metrics) != len(want.Metrics) {
				t.Fatalf("metric count %d != %d", len(got.Metrics), len(want.Metrics))
			}
			for k, v := range want.Metrics {
				if gv, ok := got.Metrics[k]; !ok || gv != v {
					t.Errorf("metric %s: parallel %v, serial %v", k, gv, v)
				}
			}
			if len(got.Artifacts) != len(want.Artifacts) {
				t.Fatalf("artifact count %d != %d", len(got.Artifacts), len(want.Artifacts))
			}
			for i := range want.Artifacts {
				if got.Artifacts[i].Name != want.Artifacts[i].Name {
					t.Errorf("artifact %d name %q != %q", i, got.Artifacts[i].Name, want.Artifacts[i].Name)
				}
				if got.Artifacts[i].Content != want.Artifacts[i].Content {
					t.Errorf("artifact %s bytes differ between worker counts", want.Artifacts[i].Name)
				}
			}
		})
	}
}
