package stream

import (
	"errors"
	"testing"
)

// FuzzMonitor drives the windowed estimator through arbitrary event
// scripts — window roll-over, huge idle jumps, non-monotone slots,
// repeated finishes — and asserts the structural
// invariants: no panics, monotone clocks, and every window estimate
// well formed — at most WindowSlots attempts, 0 < Tau < 1, Ŵ >= 1. Beta 1
// with an ExpectedCW above any estimate makes every estimate a flag, so
// OnFlag sees them all.
//
// The script is consumed 3 bytes per op: [opcode, a, b].
//
//	opcode % 4 == 0..1: OnEvent(slot += a*256+b, transmitters from a's low bits)
//	opcode % 4 == 2:    OnEvent with a *rewound* slot (non-monotone input)
//	opcode % 4 == 3:    Finish(slot += a*256+b) (mid-run finish)
func FuzzMonitor(f *testing.F) {
	f.Add(int64(10), []byte{0, 3, 7, 1, 1, 200, 3, 0, 50, 2, 7, 7})
	f.Add(int64(1), []byte{0, 255, 255, 0, 0, 0})
	f.Add(int64(1<<40), []byte{1, 9, 9, 3, 255, 255, 0, 1, 1})
	f.Add(int64(7), []byte{})

	f.Fuzz(func(t *testing.T, windowSlots int64, script []byte) {
		const nodes = 5
		var flags int64
		cfg := Config{
			Nodes: nodes, WindowSlots: windowSlots,
			MaxStage: 6, ExpectedCW: 1 << 30, Beta: 1,
			OnFlag: func(e FlagEvent) {
				flags++
				// The clamp keeps attempts <= WindowSlots even under
				// non-monotone input.
				if e.Attempts < 1 || e.Attempts > windowSlots {
					t.Fatalf("window %d holds %d attempts for node %d in %d slots", e.Window, e.Attempts, e.Node, windowSlots)
				}
				if !(e.Tau > 0 && e.Tau < 1) {
					t.Fatalf("window %d node %d: estimated from tau %g", e.Window, e.Node, e.Tau)
				}
				if !(e.EstCW >= 1) {
					t.Fatalf("window %d node %d: estimate %g < 1", e.Window, e.Node, e.EstCW)
				}
			},
		}
		mon, err := NewMonitor(cfg)
		if err != nil {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("rejection %v is not ErrInvalidConfig", err)
			}
			return
		}

		var slot int64
		tx := make([]int, 0, nodes)
		for len(script) >= 3 {
			op, a, b := script[0], int64(script[1]), int64(script[2])
			script = script[3:]

			tx = tx[:0]
			for i := 0; i < nodes; i++ {
				if a&(1<<uint(i)) != 0 {
					tx = append(tx, i)
				}
			}
			prevSlots, prevWindows := mon.Slots(), mon.Windows()
			switch op % 4 {
			case 0, 1:
				slot += a*256 + b
				mon.OnEvent(slot, tx)
			case 2:
				rewound := slot - (a*256 + b)
				mon.OnEvent(rewound, tx)
			case 3:
				slot += a*256 + b
				mon.Finish(slot)
			}
			if mon.Slots() < prevSlots {
				t.Fatalf("slot clock went backwards: %d -> %d", prevSlots, mon.Slots())
			}
			if mon.Windows() < prevWindows {
				t.Fatalf("window count went backwards: %d -> %d", prevWindows, mon.Windows())
			}
		}
		mon.Finish(slot)

		if mon.Flags() != flags {
			t.Fatalf("Flags() = %d, OnFlag saw %d", mon.Flags(), flags)
		}
		for i := 0; i < nodes; i++ {
			if n := int64(mon.EstimateSummary(i).N); n > mon.Windows() || n != mon.NodeFlags(i) {
				t.Fatalf("node %d: %d estimates, %d flags, %d windows", i, n, mon.NodeFlags(i), mon.Windows())
			}
		}

		// Reset restores a blank monitor.
		mon.Reset()
		if mon.Slots() != 0 || mon.Windows() != 0 || mon.Flags() != 0 {
			t.Fatal("Reset left residual state")
		}
	})
}
