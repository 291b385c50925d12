// Package stream is the online misbehavior-detection layer between the
// simulator engines and the serving surface: a Monitor consumes the
// per-virtual-slot (slot, transmitters) events both engines emit through
// their Observer hooks, maintains per-peer attempt counts over fixed
// windows, inverts eq. (2)/(3) per completed window with incremental
// Welford state, and emits flag events with first-detection-latency
// accounting.
//
// Relationship to internal/detect: detect is the batch estimator over a
// finished trace; this package is the same mathematics folded over the
// live event stream. The per-window arithmetic goes through the exact
// same detect entry points (Observation-style tau division,
// detect.CollisionProb, detect.EstimateCW), so a streamed window's Ŵ is
// bit-identical to running the batch estimator on that window's recorded
// counts — the differential tests pin this. A node whose windowed tau is
// degenerate (no attempts, or an attempt in every slot) gets no estimate
// for that window and cannot be flagged in it; such windows are counted,
// not delivered: Windows() minus EstimateSummary(i).N is node i's count
// of completed windows without an estimate.
//
// Determinism and allocation contract: a Monitor attached as an engine
// Observer performs no PRNG draws and never mutates simulation state, so
// engine Results are byte-identical with or without it; OnEvent and the
// window-close path allocate nothing after construction (pinned by an
// AllocsPerRun test), preserving the engines' 0-alloc steady state end
// to end.
//
// Window semantics: windows are fixed, non-overlapping spans of
// WindowSlots virtual slots aligned to the run-wide slot clock —
// window k covers [k·W, (k+1)·W). A window closes when the first event
// at or past its end arrives (or at Finish/Advance); fully idle windows
// are counted but produce no estimates and no flags — an all-idle window
// carries no attempt information. The detection-latency
// metric is FirstFlagSlot: the absolute end slot of the first window
// whose estimate undercut Beta·ExpectedCW, i.e. the number of virtual
// slots the observer needed before flagging (-1 when never flagged).
package stream

import (
	"errors"
	"fmt"

	"selfishmac/internal/detect"
	"selfishmac/internal/stats"
)

// ErrInvalidConfig marks a Config rejected by Validate; inspect the
// wrapped detail with errors.Is/As.
var ErrInvalidConfig = errors.New("stream: invalid config")

// FlagEvent is one misbehavior flag: node's windowed estimate undercut
// Beta·ExpectedCW at the close of a window.
type FlagEvent struct {
	// Node is the flagged peer.
	Node int
	// Window is the completed window's index (0-based on the run-wide
	// clock, idle windows included).
	Window int64
	// EndSlot is the absolute virtual slot at which the window closed —
	// the detection-latency reading if this is the node's first flag.
	EndSlot int64
	// Attempts is the node's attempt count inside the window.
	Attempts int64
	// Tau and P are the windowed observation and the eq.-(3) collision
	// probability the estimate inverted.
	Tau float64
	P   float64
	// EstCW is the windowed eq.-(2) estimate Ŵ that triggered the flag.
	EstCW float64
	// ExpectedCW and Margin restate the trigger: Margin = EstCW/ExpectedCW
	// < Beta.
	ExpectedCW float64
	Margin     float64
}

// Config parameterises a Monitor.
type Config struct {
	// Nodes is the population size (transmitter indices outside
	// [0, Nodes) are ignored defensively).
	Nodes int
	// WindowSlots is the estimation window width in virtual slots.
	WindowSlots int64
	// MaxStage is the backoff cap m used by the eq.-(2) inversion.
	MaxStage int
	// ExpectedCW is the CW conforming nodes should operate on.
	ExpectedCW int
	// Beta is the GTFT tolerance in (0, 1]: flag when Ŵ < Beta·ExpectedCW.
	Beta float64
	// OnFlag, when non-nil, receives every flag event as it happens.
	// Called synchronously from the engine hot loop: implementations
	// must not allocate if the 0-alloc contract is to hold.
	OnFlag func(FlagEvent)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	var errs []error
	if c.Nodes < 1 {
		errs = append(errs, fmt.Errorf("nodes %d < 1", c.Nodes))
	}
	if c.WindowSlots < 1 {
		errs = append(errs, fmt.Errorf("window of %d slots < 1", c.WindowSlots))
	}
	if c.MaxStage < 0 || c.MaxStage > 16 {
		errs = append(errs, fmt.Errorf("max backoff stage %d outside [0, 16]", c.MaxStage))
	}
	if c.ExpectedCW < 1 {
		errs = append(errs, fmt.Errorf("expected CW %d < 1", c.ExpectedCW))
	}
	if !(c.Beta > 0 && c.Beta <= 1) { // rejects NaN too
		errs = append(errs, fmt.Errorf("beta %g outside (0, 1]", c.Beta))
	}
	if len(errs) > 0 {
		return fmt.Errorf("%w: %w", ErrInvalidConfig, errors.Join(errs...))
	}
	return nil
}

// Monitor is the online detector. It implements the engines' Observer
// hook (OnEvent) and the multi-stage SlotAdvancer extension (Advance);
// one Monitor instance satisfies both macsim.Observer and
// multihop.Observer. Not safe for concurrent use — attach one Monitor
// per engine, exactly like the engines themselves.
type Monitor struct {
	cfg       Config
	threshold float64 // Beta·ExpectedCW

	base     int64 // slot offset accumulated by Advance across stages
	slots    int64 // absolute virtual slots observed so far
	winStart int64 // absolute start slot of the open window
	windows  int64 // completed windows (idle ones included)
	dirty    bool  // any attempt recorded in the open window

	cur  []int64 // per-node attempts in the open window
	taus []float64

	est       []stats.Welford // per-node moments over windowed Ŵ
	firstFlag []int64         // absolute end slot of first flag (-1 never)
	nodeFlags []int64
	flags     int64
}

// NewMonitor builds a Monitor. All buffers are allocated here; the
// observer path and Reset allocate nothing afterwards.
func NewMonitor(cfg Config) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Nodes
	m := &Monitor{
		cfg:       cfg,
		threshold: cfg.Beta * float64(cfg.ExpectedCW),
		cur:       make([]int64, n),
		taus:      make([]float64, n),
		est:       make([]stats.Welford, n),
		firstFlag: make([]int64, n),
		nodeFlags: make([]int64, n),
	}
	m.Reset()
	return m, nil
}

// Reset restores the just-constructed state so the Monitor can observe a
// fresh run. It allocates nothing.
func (m *Monitor) Reset() {
	m.base, m.slots, m.winStart, m.windows = 0, 0, 0, 0
	m.dirty = false
	m.flags = 0
	for i := range m.cur {
		m.cur[i] = 0
		m.taus[i] = 0
		m.est[i] = stats.Welford{}
		m.firstFlag[i] = -1
		m.nodeFlags[i] = 0
	}
}

// OnEvent consumes one busy virtual slot: the engines call it with the
// slot index and the transmitter set (engine-owned scratch; the Monitor
// copies what it keeps). Slots are clamped monotone defensively, so a
// window can never hold more attempts than slots.
func (m *Monitor) OnEvent(slot int64, transmitters []int) {
	abs := m.base + slot
	if abs < m.slots {
		abs = m.slots
	}
	w := m.cfg.WindowSlots
	if abs-m.winStart >= w {
		m.closeWindow()
		// Any further whole windows between the one just closed and abs
		// saw no events at all: count them in bulk, estimate nothing.
		if k := (abs - m.winStart) / w; k > 0 {
			m.windows += k
			m.winStart += k * w
		}
	}
	for _, i := range transmitters {
		if uint(i) < uint(len(m.cur)) {
			m.cur[i]++
		}
	}
	m.slots = abs + 1
	m.dirty = m.dirty || len(transmitters) > 0
}

// Advance shifts the run-wide slot clock by slots — the multihop engine
// calls it after each stage (whose local clocks restart at 0), closing
// every window the stage completed. It satisfies multihop.SlotAdvancer.
func (m *Monitor) Advance(slots int64) {
	if slots < 0 {
		return
	}
	m.finishTo(m.base + slots)
	m.base += slots
}

// Finish closes every window fully contained in the first totalSlots
// virtual slots of the run (relative to the current stage base, matching
// Result.Slots of a single run). Call it once after the run so trailing
// windows are estimated; a trailing partial window stays open.
func (m *Monitor) Finish(totalSlots int64) {
	m.finishTo(m.base + totalSlots)
}

func (m *Monitor) finishTo(absSlots int64) {
	if absSlots <= m.slots {
		absSlots = m.slots
	}
	w := m.cfg.WindowSlots
	if absSlots-m.winStart >= w {
		m.closeWindow()
		if k := (absSlots - m.winStart) / w; k > 0 {
			m.windows += k
			m.winStart += k * w
		}
	}
	m.slots = absSlots
}

// closeWindow estimates and rolls the open window [winStart, winStart+W).
func (m *Monitor) closeWindow() {
	w := m.cfg.WindowSlots
	end := m.winStart + w
	widx := m.windows
	if m.dirty {
		// Windowed taus use the same float division Observation.Tau
		// performs, and p the shared detect.CollisionProb, so every
		// estimate below is bit-identical to the batch path on the same
		// counts.
		for i, c := range m.cur {
			m.taus[i] = float64(c) / float64(w)
		}
		for i := range m.cur {
			tau := m.taus[i]
			if tau <= 0 || tau >= 1 {
				continue // degenerate: counted in Windows, not estimated
			}
			p := detect.CollisionProb(m.taus, i)
			est, err := detect.EstimateCW(tau, p, m.cfg.MaxStage)
			if err != nil {
				continue
			}
			m.est[i].Add(est)
			if est < m.threshold {
				m.nodeFlags[i]++
				m.flags++
				if m.firstFlag[i] < 0 {
					m.firstFlag[i] = end
				}
				if m.cfg.OnFlag != nil {
					m.cfg.OnFlag(FlagEvent{
						Node: i, Window: widx, EndSlot: end,
						Attempts: m.cur[i], Tau: tau, P: p,
						EstCW:      est,
						ExpectedCW: float64(m.cfg.ExpectedCW),
						Margin:     est / float64(m.cfg.ExpectedCW),
					})
				}
			}
		}
		for i := range m.cur {
			m.cur[i] = 0
		}
		m.dirty = false
	}
	m.windows++
	m.winStart = end
}

// Windows returns the number of completed windows (idle ones included).
func (m *Monitor) Windows() int64 { return m.windows }

// Slots returns the absolute virtual slots observed so far.
func (m *Monitor) Slots() int64 { return m.slots }

// Flags returns the total number of flag events emitted.
func (m *Monitor) Flags() int64 { return m.flags }

// NodeFlags returns how many windows flagged node i.
func (m *Monitor) NodeFlags(i int) int64 { return m.nodeFlags[i] }

// FirstFlagSlot returns the detection latency for node i: the absolute
// end slot of the first flagged window, or -1 when never flagged.
func (m *Monitor) FirstFlagSlot(i int) int64 { return m.firstFlag[i] }

// EstimateSummary returns the moments of node i's windowed Ŵ estimates
// (degenerate windows excluded).
func (m *Monitor) EstimateSummary(i int) stats.Summary { return m.est[i].Snapshot() }
