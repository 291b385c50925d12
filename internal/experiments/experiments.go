// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII), plus the numerical analyses behind its
// analytical sections (short-sighted and malicious players, the NE search
// algorithm, TFT/GTFT convergence, and the lemma orderings).
//
// Each experiment returns a Report: a human-readable text rendering, CSV
// artifacts with the full series, and a flat metric map that EXPERIMENTS.md
// summarizes against the paper's numbers. cmd/experiments writes them all
// under results/.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"selfishmac/internal/replicate"
)

// Artifact is one named output file (content already rendered).
type Artifact struct {
	// Name is the file name (relative, e.g. "table2.csv").
	Name string
	// Content is the full file body.
	Content string
}

// Report is one experiment's complete output.
type Report struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "T2", "F3").
	ID string
	// Title describes the experiment.
	Title string
	// Text is the human-readable rendering (tables/charts).
	Text string
	// Artifacts carries CSV (and other) outputs.
	Artifacts []Artifact
	// Metrics holds the headline numbers keyed by stable names.
	Metrics map[string]float64
}

// Metric records one value, creating the map on first use.
func (r *Report) Metric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[key] = v
}

// boolMetric encodes a flag as a metric value: 1 for true, 0 for false.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// MetricsSummary renders the metrics sorted by key. It is safe on a nil
// report and on a report with no metrics (both render empty), so callers
// can print it unconditionally after a partial failure.
func (r *Report) MetricsSummary() string {
	if r == nil || len(r.Metrics) == 0 {
		return ""
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s = %.6g\n", k, r.Metrics[k])
	}
	return b.String()
}

// Settings tunes how heavy the simulations behind the reports are. The
// zero value is unusable; use DefaultSettings (paper-faithful, minutes of
// CPU) or QuickSettings (seconds, for tests).
type Settings struct {
	// SingleHopSimTime is the per-operating-point simulated time for the
	// single-hop NE tables, in microseconds (paper: 1000 s).
	SingleHopSimTime float64
	// MultihopSimTime is the per-operating-point simulated time of the
	// spatial simulator, in microseconds.
	MultihopSimTime float64
	// MultihopNodes scales the Section VII.B scenario (paper: 100).
	MultihopNodes int
	// FigurePoints is the number of CW values per figure series.
	FigurePoints int
	// Seed drives every stochastic component. Per-component streams are
	// derived from it with rng.DeriveSeed, so no two components share a
	// stream regardless of how many points or replicas they draw.
	Seed uint64
	// Schedule is the replication schedule of every simulation-backed
	// experiment point, passed as is to its internal/replicate Plan: with
	// RelTolerance set, a point replicates in deterministic rounds, from
	// MinReps up to MaxReps independent seeds, until the CI95 half-width
	// of its headline metric drops below RelTolerance of the mean; with
	// RelTolerance 0, every point runs exactly MaxReps replications.
	// Schedule.Workers also bounds the goroutines each experiment fans
	// out over its independent sweep points and figure series (0 or
	// negative means GOMAXPROCS). Results are bit-identical at every
	// worker count, including 1 (fully serial).
	replicate.Schedule
}

// ErrInvalidSettings is wrapped by every error Settings.Validate returns.
var ErrInvalidSettings = errors.New("experiments: invalid settings")

// plan is the replication plan of one simulation-backed measurement:
// the settings' seed and schedule on the given seed stream, adaptive
// stopping driven by metric 0.
func (s Settings) plan(stream string, metrics int) replicate.Plan {
	return replicate.Plan{
		BaseSeed: s.Seed,
		Stream:   stream,
		Metrics:  metrics,
		Schedule: s.Schedule,
	}
}

// DefaultSettings reproduces the paper's scales (1000 s single-hop
// simulations, the 100-node mobile scenario).
func DefaultSettings() Settings {
	return Settings{
		SingleHopSimTime: 1000e6,
		MultihopSimTime:  60e6,
		MultihopNodes:    100,
		FigurePoints:     60,
		Seed:             1,
		Schedule:         replicate.Schedule{MinReps: 3, MaxReps: 8, RelTolerance: 0.02},
	}
}

// QuickSettings is a fast profile for tests and smoke runs.
func QuickSettings() Settings {
	return Settings{
		SingleHopSimTime: 30e6,
		MultihopSimTime:  4e6,
		MultihopNodes:    40,
		FigurePoints:     25,
		Seed:             1,
		Schedule:         replicate.Schedule{MinReps: 2, MaxReps: 3, RelTolerance: 0.1},
	}
}

// Validate rejects unusable settings with an error wrapping
// ErrInvalidSettings: a sim time that is not positive and finite, fewer
// than 2 multihop nodes or 5 figure points, a schedule
// replicate.Schedule.Validate rejects, or MinReps outside [1, MaxReps].
func (s Settings) Validate() error {
	if !positiveFinite(s.SingleHopSimTime) || !positiveFinite(s.MultihopSimTime) {
		return fmt.Errorf("%w: sim times %g/%g must be positive and finite", ErrInvalidSettings, s.SingleHopSimTime, s.MultihopSimTime)
	}
	if s.MultihopNodes < 2 {
		return fmt.Errorf("%w: %d multihop nodes < 2", ErrInvalidSettings, s.MultihopNodes)
	}
	if s.FigurePoints < 5 {
		return fmt.Errorf("%w: %d figure points < 5", ErrInvalidSettings, s.FigurePoints)
	}
	if err := s.Schedule.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidSettings, err)
	}
	if s.MinReps < 1 || s.MinReps > s.MaxReps {
		return fmt.Errorf("%w: replication schedule %d/%d needs 1 <= MinReps <= MaxReps", ErrInvalidSettings, s.MinReps, s.MaxReps)
	}
	return nil
}

// positiveFinite reports whether x is in (0, +Inf); false for NaN.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Runner is a named experiment entry point. Run observes ctx: a
// cancelled context makes the runner return promptly with an error
// wrapping ctx.Err() (checked between sweep points and at replication
// round boundaries), never a partially rendered report.
type Runner struct {
	ID   string
	Name string
	Run  func(ctx context.Context, s Settings) (*Report, error)
}

// ByID returns the runner with the given ID (case-insensitive), or false.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

// All lists every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"T1", "Table I: network parameters", Table1},
		{"T2", "Table II: efficient NE, basic access", Table2},
		{"T3", "Table III: efficient NE, RTS/CTS", Table3},
		{"F2", "Figure 2: global payoff vs CW, basic", Figure2},
		{"F3", "Figure 3: global payoff vs CW, RTS/CTS", Figure3},
		{"M1", "Multi-hop quasi-optimality (Section VII.B)", MultihopQuasiOptimality},
		{"M2", "Hidden-node factor invariance (Section VI.A)", HiddenNodeInvariance},
		{"A1", "Efficient-NE search algorithm (Section V.C)", SearchAlgorithm},
		{"A2", "Short-sighted players (Section V.D)", ShortSighted},
		{"A3", "Malicious players (Section V.E)", Malicious},
		{"A4", "Lemma 1 & 4 orderings", LemmaChecks},
		{"A5", "TFT/GTFT convergence", TFTConvergence},
		{"A6", "Ablation: maximum backoff stage m", BackoffStageAblation},
		{"A7", "Ablation: transmission-cost term e", CostTermAblation},
		{"A8", "Population mix: myopic deviators among TFT players", PopulationMix},
		{"A9", "Robustness: resilient NE search under faults", Robustness},
		{"R1", "Extension: packet-size (rate-control) game", RateControl},
		{"D1", "Extension: CW misbehavior detection", Detection},
		{"D2", "Closed loop: TFT driven by estimated observations", ClosedLoop},
		{"D3", "GTFT tolerance vs reaction-time trade-off", GTFTTradeoff},
		{"D4", "Streaming detection over population mixes", StreamingDetection},
		{"X1", "Section VIII: access delay at the NE", DelayAnalysis},
	}
}
