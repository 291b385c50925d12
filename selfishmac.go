// Package selfishmac is a from-scratch Go implementation of the
// game-theoretic model of selfish IEEE 802.11 DCF behavior from
//
//	Lin Chen, Jean Leneutre. "Selfishness, Not Always A Nightmare:
//	Modeling Selfish MAC Behaviors in Wireless Mobile Ad Hoc Networks."
//	ICDCS 2007.
//
// The package answers the paper's question — how does 802.11 DCF fare
// when every node selfishly tunes its contention window? — with the
// paper's machinery, all implemented here on the standard library alone:
//
//   - an extended Bianchi Markov-chain model supporting heterogeneous
//     per-node contention windows (Section III),
//   - the repeated non-cooperative MAC game with TIT-FOR-TAT players, its
//     Nash-equilibrium set [Wc0, Wc*], and the refinement that isolates
//     the unique efficient NE (Sections IV–V),
//   - the distributed search protocol for Wc* (Section V.C) and the
//     short-sighted / malicious deviation analyses (Sections V.D–V.E),
//   - discrete-event single-hop and slot-synchronous spatial multi-hop
//     DCF simulators standing in for the paper's NS-2 runs,
//   - the multi-hop game on mobile unit-disk networks, where TFT
//     converges to a quasi-optimal NE (Section VI).
//
// # Quick start
//
//	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(20, selfishmac.RTSCTS))
//	if err != nil { ... }
//	ne, err := game.FindPaperNE() // the paper's Table III value for n=20
//	fmt.Println(ne.WStar)         // ≈ 48
//
// The cmd/experiments binary regenerates every table and figure of the
// paper's evaluation; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for measured-vs-paper numbers.
package selfishmac

import (
	"selfishmac/internal/bianchi"
	"selfishmac/internal/core"
	"selfishmac/internal/detect"
	"selfishmac/internal/faults"
	"selfishmac/internal/macsim"
	"selfishmac/internal/multihop"
	"selfishmac/internal/phy"
	"selfishmac/internal/ratecontrol"
	"selfishmac/internal/rng"
	"selfishmac/internal/search"
	"selfishmac/internal/stream"
	"selfishmac/internal/topology"
)

// RandSource is the deterministic PRNG handed to observation-noise
// callbacks (see ObservationNoise).
type RandSource = rng.Source

// NewRandSource returns a seeded deterministic random source.
func NewRandSource(seed uint64) *RandSource { return rng.New(seed) }

// Version identifies the library release.
const Version = "1.0.0"

// Channel / PHY layer (Table I parameterisation).
type (
	// AccessMode selects basic or RTS/CTS DCF access.
	AccessMode = phy.AccessMode
	// PHYParams is the 802.11 parameter set (frame sizes, rates, IFSs).
	PHYParams = phy.Params
	// Timing bundles the derived slot-level durations Ts/Tc/sigma.
	Timing = phy.Timing
)

// Access-mode constants.
const (
	// Basic is the two-way DATA/ACK exchange.
	Basic = phy.Basic
	// RTSCTS is the four-way RTS/CTS/DATA/ACK exchange.
	RTSCTS = phy.RTSCTS
)

// DefaultPHY returns the paper's Table I parameter set.
func DefaultPHY() PHYParams { return phy.Default() }

// Markov-chain channel model (Section III).
type (
	// ChannelModel is the extended Bianchi model with per-node CWs.
	ChannelModel = bianchi.Model
	// ChannelSolution is a solved operating point (tau, p, Tslot, S).
	ChannelSolution = bianchi.Solution
	// SlotStats is the per-slot channel decomposition.
	SlotStats = bianchi.SlotStats
)

// NewChannelModel builds the extended Bianchi model for the given timing
// and maximum backoff stage.
func NewChannelModel(tm Timing, maxStage int) (*ChannelModel, error) {
	return bianchi.New(tm, maxStage)
}

// Game layer (Sections IV–V).
type (
	// GameConfig parameterises the repeated MAC game.
	GameConfig = core.Config
	// Game is the non-cooperative MAC game G.
	Game = core.Game
	// NE describes the equilibrium set and the efficient NE.
	NE = core.NE
	// Refinement is the Section V.B NE-refinement outcome.
	Refinement = core.Refinement
	// Strategy decides a player's CW per stage.
	Strategy = core.Strategy
	// TFT is the paper's TIT-FOR-TAT strategy.
	TFT = core.TFT
	// GTFT is Generous TIT-FOR-TAT with averaging window and tolerance.
	GTFT = core.GTFT
	// Constant pins a CW (the malicious player of Section V.E).
	Constant = core.Constant
	// GrimTrigger punishes forever after any observed undercut.
	GrimTrigger = core.GrimTrigger
	// Deviant deviates for a fixed number of stages, then conforms.
	Deviant = core.Deviant
	// BestResponse replays the myopic best response each stage.
	BestResponse = core.BestResponse
	// Engine runs the repeated game.
	Engine = core.Engine
	// EngineOption configures an Engine.
	EngineOption = core.EngineOption
	// Trace is a repeated-game run record.
	Trace = core.Trace
	// StageRecord is one stage of a Trace.
	StageRecord = core.StageRecord
	// DeviationOutcome is the Lemma 4 payoff triple.
	DeviationOutcome = core.DeviationOutcome
	// ShortSightedResult is the Section V.D deviation analysis.
	ShortSightedResult = core.ShortSightedResult
	// MaliciousResult is the Section V.E attack analysis.
	MaliciousResult = core.MaliciousResult
	// ObservationNoise perturbs cross-player CW observations.
	ObservationNoise = core.ObservationNoise
)

// DefaultConfig returns the paper's Table I game configuration for n
// players under the given access mode.
func DefaultConfig(n int, mode AccessMode) GameConfig { return core.DefaultConfig(n, mode) }

// NewGame validates cfg and constructs the game.
func NewGame(cfg GameConfig) (*Game, error) { return core.NewGame(cfg) }

// NewEngine builds a repeated-game engine with one strategy per player.
func NewEngine(g *Game, strategies []Strategy, opts ...EngineOption) (*Engine, error) {
	return core.NewEngine(g, strategies, opts...)
}

// WithNoise installs an observation-noise model on an Engine.
func WithNoise(n ObservationNoise) EngineOption { return core.WithNoise(n) }

// WithSeed seeds an Engine's randomness.
func WithSeed(seed uint64) EngineOption { return core.WithSeed(seed) }

// WithStopOnConvergence stops a run once the profile has been uniform for
// window stages.
func WithStopOnConvergence(window int) EngineOption { return core.WithStopOnConvergence(window) }

// Single-hop simulator (the NS-2 stand-in).
type (
	// SimConfig parameterises a single-collision-domain simulation.
	SimConfig = macsim.Config
	// SimResult is its outcome.
	SimResult = macsim.Result
	// SimNodeStats is one node's measured statistics.
	SimNodeStats = macsim.NodeStats
)

// Simulate runs the event-driven saturated single-hop DCF simulator.
func Simulate(cfg SimConfig) (*SimResult, error) { return macsim.Run(cfg) }

// Topology and multi-hop game (Section VI).
type (
	// TopologyConfig parameterises node placement and mobility.
	TopologyConfig = topology.Config
	// Network is a (possibly mobile) unit-disk network.
	Network = topology.Network
	// Point is a planar position in meters.
	Point = topology.Point
	// SpatialSimConfig parameterises the multi-hop spatial simulator.
	SpatialSimConfig = multihop.SimConfig
	// SpatialSimResult is its outcome (incl. hidden-terminal losses).
	SpatialSimResult = multihop.SimResult
	// LocalCWSelector caches per-neighborhood efficient-NE CWs.
	LocalCWSelector = multihop.LocalCWSelector
	// QuasiOptConfig parameterises the Section VII.B measurement.
	QuasiOptConfig = multihop.QuasiOptConfig
	// QuasiOptResult reports how close the converged NE is to optimal.
	QuasiOptResult = multihop.QuasiOptResult
	// SpatialTopology is the read view of a network the spatial simulator
	// and the multi-hop engine accept: N and Rows, the shared ascending
	// neighbor rows. *Network implements it and is the only topology
	// that moves, so mobility needs a *Network.
	SpatialTopology = multihop.Topology
	// MultihopEngine plays the multi-hop repeated game dynamically.
	MultihopEngine = multihop.Engine
	// MultihopTrace is a multi-hop repeated-game run record.
	MultihopTrace = multihop.Trace
)

// NewMultihopEngine builds a stage-based multi-hop game engine: one
// strategy per node, payoffs measured by the spatial simulator, local
// (neighborhood) CW observations.
func NewMultihopEngine(nw SpatialTopology, strategies []Strategy, stage SpatialSimConfig) (*MultihopEngine, error) {
	return multihop.NewEngine(nw, strategies, stage)
}

// PaperTopology returns the paper's Section VII.B scenario (100 nodes,
// 1000 m x 1000 m, 250 m range, random waypoint up to 5 m/s).
func PaperTopology(seed uint64) TopologyConfig { return topology.PaperConfig(seed) }

// NewNetwork places and initialises a network.
func NewNetwork(cfg TopologyConfig) (*Network, error) { return topology.New(cfg) }

// SimulateSpatial runs the slot-synchronous multi-hop DCF simulator over
// the network's current topology.
func SimulateSpatial(nw *Network, cfg SpatialSimConfig) (*SpatialSimResult, error) {
	return multihop.Simulate(nw, cfg)
}

// NewLocalCWSelector builds the multi-hop local-game CW selector from a
// base game configuration (its N field is overridden per neighborhood).
func NewLocalCWSelector(base GameConfig) (*LocalCWSelector, error) {
	return multihop.NewLocalCWSelector(base)
}

// LocalCWProfile returns every node's local efficient-NE CW.
func LocalCWProfile(nw *Network, sel *LocalCWSelector) ([]int, error) {
	return multihop.LocalCWProfile(nw, sel)
}

// ConvergedCW returns Wm = min of a CW profile (Theorem 3).
func ConvergedCW(profile []int) int { return multihop.ConvergedCW(profile) }

// TFTConverge iterates local TFT on a neighbor graph until fixed point.
func TFTConverge(adj [][]int, w0 []int, maxStages int) ([]int, int, bool) {
	return multihop.TFTConverge(adj, w0, maxStages)
}

// MeasureQuasiOptimality runs the Section VII.B experiment.
func MeasureQuasiOptimality(nw *Network, cfg QuasiOptConfig) (*QuasiOptResult, error) {
	return multihop.MeasureQuasiOptimality(nw, cfg)
}

// DefaultSpatialSimConfig returns paper-flavored spatial settings
// (RTS/CTS, Table I utility parameters).
func DefaultSpatialSimConfig(duration float64, seed uint64) SpatialSimConfig {
	return multihop.DefaultSimConfig(duration, seed)
}

// Distributed NE search (Section V.C).
type (
	// SearchEnv is the world the search protocol runs against.
	SearchEnv = search.Env
	// SearchOptions tunes the search.
	SearchOptions = search.Options
	// SearchResult is the search outcome.
	SearchResult = search.Result
	// AnalyticSearchEnv measures payoffs exactly.
	AnalyticSearchEnv = search.AnalyticEnv
	// LossySearchEnv adds broadcast message loss.
	LossySearchEnv = search.LossyEnv
	// SimSearchEnv measures payoffs with the MAC simulator.
	SimSearchEnv = search.SimEnv
)

// NewAnalyticSearchEnv builds an exact-payoff search environment.
func NewAnalyticSearchEnv(g *Game, leader, w0 int) (*AnalyticSearchEnv, error) {
	return search.NewAnalyticEnv(g, leader, w0)
}

// NewLossySearchEnv wraps env with per-node broadcast loss.
func NewLossySearchEnv(env *AnalyticSearchEnv, dropProb float64, seed uint64) (*LossySearchEnv, error) {
	return search.NewLossyEnv(env, dropProb, seed)
}

// NewSimSearchEnv builds a simulator-measured search environment.
func NewSimSearchEnv(cfg SimConfig, leader int) (*SimSearchEnv, error) {
	return search.NewSimEnv(cfg, leader)
}

// RunSearch executes the paper's Section V.C unit-step search.
func RunSearch(env SearchEnv, leader, w0 int, opts SearchOptions) (SearchResult, error) {
	return search.Run(env, leader, w0, opts)
}

// RunAcceleratedSearch executes the O(log W*) variant.
func RunAcceleratedSearch(env SearchEnv, leader, w0 int, opts SearchOptions) (SearchResult, error) {
	return search.AcceleratedSearch(env, leader, w0, opts)
}

// Fault injection and resilient search (deployment robustness).
type (
	// FaultConfig selects which protocol faults a FaultyEnv injects:
	// broadcast drop, duplication, delay/reordering, payoff outliers,
	// transient measurement failures, and crash-stop of followers or the
	// leader. The zero value injects nothing.
	FaultConfig = faults.Config
	// FaultStats counts every injected fault.
	FaultStats = faults.Stats
	// FaultyEnv wraps any SearchEnv with deterministic, seed-replayable
	// fault injection.
	FaultyEnv = faults.FaultyEnv
	// SearchDelivery is one lossy broadcast's per-follower outcome.
	SearchDelivery = search.Delivery
	// MultihopChurnConfig models node churn during a multi-hop run
	// (MultihopEngine.WithChurn).
	MultihopChurnConfig = multihop.ChurnConfig
)

// NewFaultyEnv wraps inner with the configured fault injection. Every
// fault stream is derived from cfg.Seed, so a scenario replays
// byte-identically from its seed alone.
func NewFaultyEnv(inner SearchEnv, cfg FaultConfig) (*FaultyEnv, error) {
	return faults.New(inner, cfg)
}

// RunResilientSearch executes the Section V.C walk hardened for
// deployment: retry of failed measurements, median-of-k measurement,
// Ready re-broadcast on missed acknowledgement, deputy failover after a
// leader crash, and best-so-far degradation on an exhausted probe budget
// (SearchResult.Degraded).
func RunResilientSearch(env SearchEnv, leader, w0 int, opts SearchOptions) (SearchResult, error) {
	return search.ResilientRun(env, leader, w0, opts)
}

// RunResilientAcceleratedSearch is the accelerated walk with the same
// hardening as RunResilientSearch.
func RunResilientAcceleratedSearch(env SearchEnv, leader, w0 int, opts SearchOptions) (SearchResult, error) {
	return search.ResilientAcceleratedSearch(env, leader, w0, opts)
}

// CW observation and misbehavior detection (the paper's ref [3]
// assumption, implemented).
type (
	// CWObservation is one peer's promiscuous-mode attempt count.
	CWObservation = detect.Observation
	// CWEstimate is a recovered per-peer operating point.
	CWEstimate = detect.Estimate
	// MisbehaviorDetector flags peers undercutting the expected CW.
	MisbehaviorDetector = detect.Detector
	// MisbehaviorVerdict is the per-peer detection outcome.
	MisbehaviorVerdict = detect.Verdict
)

// EstimateCW inverts the channel model: from a peer's observed
// transmission probability and the collision probability it faces,
// recover the CW it must be operating on.
func EstimateCW(tau, p float64, maxStage int) (float64, error) {
	return detect.EstimateCW(tau, p, maxStage)
}

// EstimateAllCWs recovers every peer's CW from a full observation vector.
func EstimateAllCWs(obs []CWObservation, maxStage int) ([]CWEstimate, error) {
	return detect.EstimateAll(obs, maxStage)
}

// ObservationsFromSim converts a simulator run into the observation
// vector a promiscuous node would have collected.
func ObservationsFromSim(res *SimResult) []CWObservation {
	return detect.FromSimResult(res)
}

// RequiredObservationSlots estimates the window (in virtual slots) needed
// to estimate a peer's CW within relErr at ~95% confidence.
func RequiredObservationSlots(tau, relErr float64) (int64, error) {
	return detect.RequiredSlots(tau, relErr)
}

// Streaming detection: the batch estimator folded over the live engine
// event stream (internal/stream). A StreamMonitor attaches to either
// simulator through the Observer hook (SimConfig.Observer or
// SpatialSimConfig.Observer) and flags misbehaving peers while the run
// is still in flight, with first-detection-latency accounting.
type (
	// StreamMonitorConfig parameterises an online detection monitor.
	StreamMonitorConfig = stream.Config
	// StreamMonitor is the online detector; it satisfies both engines'
	// Observer interfaces. Attach one monitor per engine.
	StreamMonitor = stream.Monitor
	// StreamFlagEvent is one online misbehavior flag (delivered to
	// StreamMonitorConfig.OnFlag as it happens).
	StreamFlagEvent = stream.FlagEvent
)

// NewStreamMonitor builds an online detector. Set it as the simulation
// config's Observer, run the engine, then call Finish(res.Slots) to
// close every window the run completed before reading flag state; a
// trailing partial window stays open.
func NewStreamMonitor(cfg StreamMonitorConfig) (*StreamMonitor, error) {
	return stream.NewMonitor(cfg)
}

// Rate-control extension (the paper's suggested generalization).
type (
	// RateControlConfig parameterises the packet-size game.
	RateControlConfig = ratecontrol.Config
	// RateControlGame is the packet-size game at a solved channel point.
	RateControlGame = ratecontrol.Game
	// RateControlOutcome summarizes its commons analysis.
	RateControlOutcome = ratecontrol.Outcome
)

// DefaultRateControlConfig returns a paper-scaled packet-size game for n
// nodes at contention window w.
func DefaultRateControlConfig(n, w int, mode AccessMode) RateControlConfig {
	return ratecontrol.DefaultConfig(n, w, mode)
}

// NewRateControlGame validates cfg and solves the channel operating point.
func NewRateControlGame(cfg RateControlConfig) (*RateControlGame, error) {
	return ratecontrol.NewGame(cfg)
}
