package stream

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"selfishmac/internal/backoff"
	"selfishmac/internal/detect"
	"selfishmac/internal/macsim"
	"selfishmac/internal/phy"
	"selfishmac/internal/replicate"
)

// detectCfg is the shared scenario: six saturated nodes, node 0 cheating
// with a quarter of the conforming window.
func detectCfg(seed uint64) macsim.Config {
	return macsim.Config{Run: backoff.Default(phy.Basic, []int{16, 64, 64, 64, 64, 64}, 3e6, seed)}
}

func monitorCfg() Config {
	return Config{
		Nodes: 6, WindowSlots: 200, MaxStage: 6,
		ExpectedCW: 64, Beta: 0.6,
	}
}

// tee fans one engine event stream out to a Monitor and a raw recording.
type tee struct {
	m      *Monitor
	slots  []int64
	events [][]int
}

func (t *tee) OnEvent(slot int64, tx []int) {
	t.m.OnEvent(slot, tx)
	t.slots = append(t.slots, slot)
	t.events = append(t.events, append([]int(nil), tx...))
}

// TestDifferentialStreamingMatchesBatch pins the tentpole equivalence:
// every per-window streaming estimate equals the batch detect fold
// (Observation.Tau → CollisionProb → EstimateCW) over the same recorded
// trace, bit for bit. With Beta 1 and an ExpectedCW above any estimate,
// every non-degenerate (window, node) pair flags, so the OnFlag stream is
// the full estimate stream: its (window, node) set must be exactly the
// batch fold's non-degenerate set.
func TestDifferentialStreamingMatchesBatch(t *testing.T) {
	const expected = 1 << 30
	var got []FlagEvent
	cfg := monitorCfg()
	cfg.ExpectedCW, cfg.Beta = expected, 1
	cfg.OnFlag = func(e FlagEvent) { got = append(got, e) }
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tee{m: mon}
	scfg := detectCfg(7)
	scfg.Observer = tr
	res, err := macsim.Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	mon.Finish(res.Slots)

	// Fold the recorded trace into fixed windows by hand (the batch side
	// of the differential): counts[w][i] = attempts of node i in window w.
	const W = 200
	nWin := int(res.Slots / W)
	counts := make([][]int64, nWin)
	for w := range counts {
		counts[w] = make([]int64, 6)
	}
	for k, slot := range tr.slots {
		if w := int(slot / W); w < nWin {
			for _, i := range tr.events[k] {
				counts[w][i]++
			}
		}
	}

	// Batch-estimate every non-degenerate (window, node) pair with the
	// detect entry points and demand exact equality with the flags.
	var want []FlagEvent
	degenerate := 0
	for w := 0; w < nWin; w++ {
		busy := int64(0)
		for _, c := range counts[w] {
			busy += c
		}
		if busy == 0 {
			continue
		}
		taus := make([]float64, 6)
		for i, c := range counts[w] {
			taus[i] = float64(c) / float64(W)
		}
		for i := range counts[w] {
			tau, err := detect.Observation{Attempts: counts[w][i], Slots: W}.Tau()
			if err != nil || tau <= 0 || tau >= 1 {
				degenerate++
				continue
			}
			e := FlagEvent{
				Node: i, Window: int64(w), EndSlot: int64(w+1) * W,
				Attempts: counts[w][i], Tau: tau, P: detect.CollisionProb(taus, i),
			}
			e.EstCW, err = detect.EstimateCW(tau, e.P, 6)
			if err != nil {
				t.Fatalf("window %d node %d: batch estimate failed: %v", w, i, err)
			}
			if e.EstCW >= expected {
				t.Fatalf("window %d node %d: estimate %g not below ExpectedCW", w, i, e.EstCW)
			}
			want = append(want, e)
		}
	}
	if len(want) == 0 || degenerate == 0 {
		t.Fatalf("trace exercises %d estimates and %d degenerate pairs; want both", len(want), degenerate)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d flags, batch fold produced %d non-degenerate estimates", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Node != w.Node || g.Window != w.Window || g.EndSlot != w.EndSlot ||
			g.Attempts != w.Attempts || g.Tau != w.Tau || g.P != w.P || g.EstCW != w.EstCW {
			t.Fatalf("flag %d diverges:\n  streamed %+v\n  batch    %+v", k, g, w)
		}
	}
	// Per node, the estimate count is the flagged windows; every other
	// completed window was degenerate for that node (idle ones included).
	for i := 0; i < 6; i++ {
		n := int64(0)
		for _, e := range want {
			if e.Node == i {
				n++
			}
		}
		if got := int64(mon.EstimateSummary(i).N); got != n || mon.NodeFlags(i) != n {
			t.Errorf("node %d: %d estimates, %d flags; batch has %d", i, got, mon.NodeFlags(i), n)
		}
	}
	if mon.Windows() != int64(nWin) {
		t.Errorf("windows = %d, want %d", mon.Windows(), nWin)
	}
}

// newMonitoredReplicator is the worker unit for the replicate tests: one
// reusable engine with its own monitor attached.
func newMonitoredReplicator() (replicate.Replicator, error) {
	mon, err := NewMonitor(monitorCfg())
	if err != nil {
		return nil, err
	}
	cfg := detectCfg(0)
	cfg.Observer = mon
	eng, err := macsim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return func(seed uint64, out []float64) error {
		mon.Reset()
		eng.Reset(seed)
		res := eng.Run()
		mon.Finish(res.Slots)
		out[0] = mon.EstimateSummary(0).Mean   // cheater's mean windowed Ŵ
		out[1] = float64(mon.FirstFlagSlot(0)) // detection latency
		out[2] = float64(mon.Flags())          // total flag events
		out[3] = mon.EstimateSummary(1).Mean   // an honest node, for contrast
		return nil
	}, nil
}

// The replication fold over monitored runs must be bit-identical at any
// worker count, like every other replicated metric in the repo.
func TestMonitoredReplicationWorkerInvariance(t *testing.T) {
	plan := replicate.Plan{
		BaseSeed: 99, Stream: "stream.test", Metrics: 4,
		Schedule: replicate.Schedule{MinReps: 8, MaxReps: 8, Workers: 1},
	}
	serial, err := replicate.Run(context.Background(), plan, newMonitoredReplicator)
	if err != nil {
		t.Fatal(err)
	}
	plan.Workers = 4
	parallel, err := replicate.Run(context.Background(), plan, newMonitoredReplicator)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Moments, parallel.Moments) {
		t.Fatal("monitored replication moments diverge between 1 and 4 workers")
	}
	// Sanity on the content: the cheater is flagged (latency recorded)
	// and estimated well under the honest nodes.
	if serial.Mean(1) < 0 {
		t.Errorf("cheater never flagged: mean first-flag slot %g", serial.Mean(1))
	}
	if serial.Mean(0) >= serial.Mean(3) {
		t.Errorf("cheater Ŵ %g not below honest Ŵ %g", serial.Mean(0), serial.Mean(3))
	}
}

// The observer hot path — engine run, per-event monitor updates, window
// closes, Reset/Finish — must allocate nothing in steady state, so
// attaching detection costs no allocations on top of the engines' own
// 0-alloc contract.
func TestMonitoredRunAllocationFree(t *testing.T) {
	var flags int64
	cfg := monitorCfg()
	cfg.OnFlag = func(FlagEvent) { flags++ }
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := detectCfg(3)
	mcfg.Duration = 5e5
	mcfg.Observer = mon
	eng, err := macsim.NewEngine(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	var seed uint64
	// Warm-up: let the calendar settle at its final capacity.
	for k := 0; k < 3; k++ {
		mon.Reset()
		eng.Reset(seed)
		seed++
		mon.Finish(eng.Run().Slots)
	}
	allocs := testing.AllocsPerRun(20, func() {
		mon.Reset()
		eng.Reset(seed)
		seed++
		mon.Finish(eng.Run().Slots)
	})
	if allocs != 0 {
		t.Fatalf("monitored run allocates %v per run, want 0", allocs)
	}
	if flags == 0 {
		t.Fatal("cheater never flagged during the allocation runs")
	}
}

// flagRecorder returns an OnFlag hook and the slice it appends to.
func flagRecorder() (func(FlagEvent), *[]FlagEvent) {
	var got []FlagEvent
	return func(e FlagEvent) { got = append(got, e) }, &got
}

// A deterministic trace exercising window roll-over, idle bulk-skip and
// Finish. ExpectedCW is far above any estimate, so every estimated
// window flags and the flag stream restates each window's counts.
func TestMonitorWindowMechanics(t *testing.T) {
	onFlag, flags := flagRecorder()
	mon, err := NewMonitor(Config{
		Nodes: 2, WindowSlots: 10, MaxStage: 5,
		ExpectedCW: 1 << 20, Beta: 1, OnFlag: onFlag,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Window 0: node 0 transmits 3 times, node 1 once.
	mon.OnEvent(1, []int{0})
	mon.OnEvent(4, []int{0, 1})
	mon.OnEvent(7, []int{0})
	// Jump over windows 1..4 (idle) into window 5.
	mon.OnEvent(53, []int{1})
	if got := mon.Windows(); got != 5 {
		t.Fatalf("windows = %d after idle jump, want 5", got)
	}
	// The first event of window 6 closes window 5.
	mon.OnEvent(62, []int{0})
	if got := mon.Windows(); got != 6 {
		t.Fatalf("windows = %d after slot 62, want 6", got)
	}
	mon.Finish(80)
	if got := mon.Windows(); got != 8 {
		t.Fatalf("windows = %d after Finish, want 8", got)
	}
	if got := mon.Slots(); got != 80 {
		t.Fatalf("slots = %d, want 80", got)
	}

	// Estimated windows: 0 for both nodes, 5 for node 1 (after the idle
	// jump), 6 for node 0 (closed by Finish). Their attempts sum
	// to the whole trace: 4 for node 0, 2 for node 1.
	type key struct {
		node     int
		window   int64
		attempts int64
	}
	var got []key
	for _, e := range *flags {
		got = append(got, key{e.Node, e.Window, e.Attempts})
	}
	want := []key{{0, 0, 3}, {1, 0, 1}, {1, 5, 1}, {0, 6, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flagged (node, window, attempts) = %v, want %v", got, want)
	}
	for i := 0; i < 2; i++ {
		if n := mon.EstimateSummary(i).N; n != 2 {
			t.Errorf("node %d: %d estimates, want 2 (6 of 8 windows degenerate)", i, n)
		}
	}
	if mon.FirstFlagSlot(0) != 10 || mon.FirstFlagSlot(1) != 10 {
		t.Errorf("first flags at %d, %d; want 10, 10", mon.FirstFlagSlot(0), mon.FirstFlagSlot(1))
	}
}

// Validate must reject broken configs with the Is-able sentinel.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 3, WindowSlots: 0, ExpectedCW: 64, Beta: 0.5},
		{Nodes: 3, WindowSlots: 10, ExpectedCW: 0, Beta: 0.5},
		{Nodes: 3, WindowSlots: 10, ExpectedCW: 64, Beta: 1.5},
		{Nodes: 3, WindowSlots: 10, ExpectedCW: 64, Beta: math.NaN()},
		{Nodes: 3, WindowSlots: 10, ExpectedCW: 64, Beta: 0.5, MaxStage: 99},
	}
	for k, cfg := range bad {
		if _, err := NewMonitor(cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("bad config %d: error %v is not ErrInvalidConfig", k, err)
		}
	}
}

// Non-monotone slots (which a buggy or adversarial caller could feed)
// are clamped: a window never records more attempts than slots. Ten
// events at slot 0 land on slots 0..9: windows 0 and 1 hold 4 attempts
// in 4 slots (tau 1, degenerate), window 2 holds the last 2.
func TestMonitorClampsNonMonotoneSlots(t *testing.T) {
	onFlag, flags := flagRecorder()
	mon, err := NewMonitor(Config{
		Nodes: 1, WindowSlots: 4, MaxStage: 5,
		ExpectedCW: 1 << 20, Beta: 1, OnFlag: onFlag,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		mon.OnEvent(0, []int{0}) // same slot over and over
	}
	mon.Finish(12)
	if mon.Windows() != 3 || mon.Slots() != 12 {
		t.Fatalf("windows %d slots %d, want 3 and 12", mon.Windows(), mon.Slots())
	}
	if n := mon.EstimateSummary(0).N; n != 1 {
		t.Fatalf("%d estimated windows, want 1", n)
	}
	if len(*flags) != 1 {
		t.Fatalf("flags %+v, want one", *flags)
	}
	if e := (*flags)[0]; e.Window != 2 || e.Attempts != 2 || e.Tau != 0.5 {
		t.Fatalf("flag %+v, want window 2 with 2 attempts (tau 0.5)", e)
	}
}
