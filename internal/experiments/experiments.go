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
	"fmt"
	"runtime"
	"sort"
	"strings"
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
	// Workers bounds the goroutines each experiment may fan out over its
	// independent sweep points, figure series and replicas. 0 (the
	// default) means GOMAXPROCS. Results are bit-identical at every
	// worker count, including 1 (fully serial).
	Workers int
	// ReplicateMin and ReplicateMax bound the replication schedule of
	// every simulation-backed experiment point (internal/replicate):
	// each point runs at least ReplicateMin independent seeds and — when
	// ReplicateRelCI is set and ReplicateMax allows — keeps replicating
	// in deterministic rounds until the CI95 half-width of its headline
	// metric drops below ReplicateRelCI of the mean. Zero values fall
	// back to one replication, preserving older hand-built Settings.
	ReplicateMin int
	ReplicateMax int
	// ReplicateRelCI is the relative CI95 target for adaptive stopping.
	// Zero disables adaptive stopping (every point runs ReplicateMin).
	ReplicateRelCI float64
}

// workerCount resolves the Workers setting (0 → GOMAXPROCS) for the
// pool helpers in this package and in internal/multihop.
func (s Settings) workerCount() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// replicateBounds resolves the replication schedule, clamping unset
// fields to the single-run schedule older hand-built Settings expect.
func (s Settings) replicateBounds() (minReps, maxReps int, relCI float64) {
	minReps, maxReps, relCI = s.ReplicateMin, s.ReplicateMax, s.ReplicateRelCI
	if minReps < 1 {
		minReps = 1
	}
	if maxReps < minReps {
		maxReps = minReps
	}
	return minReps, maxReps, relCI
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
		ReplicateMin:     3,
		ReplicateMax:     8,
		ReplicateRelCI:   0.02,
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
		ReplicateMin:     2,
		ReplicateMax:     3,
		ReplicateRelCI:   0.1,
	}
}

// Validate rejects unusable settings.
func (s Settings) Validate() error {
	if s.SingleHopSimTime <= 0 || s.MultihopSimTime <= 0 {
		return fmt.Errorf("experiments: non-positive sim times %g/%g", s.SingleHopSimTime, s.MultihopSimTime)
	}
	if s.MultihopNodes < 2 {
		return fmt.Errorf("experiments: %d multihop nodes < 2", s.MultihopNodes)
	}
	if s.FigurePoints < 5 {
		return fmt.Errorf("experiments: %d figure points < 5", s.FigurePoints)
	}
	if s.ReplicateMin < 0 || s.ReplicateMax < 0 || s.ReplicateRelCI < 0 {
		return fmt.Errorf("experiments: negative replication settings %d/%d/%g",
			s.ReplicateMin, s.ReplicateMax, s.ReplicateRelCI)
	}
	return nil
}

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
