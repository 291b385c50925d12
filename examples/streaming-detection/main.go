// Streaming detection: examples/detect-cheater estimates peers' CWs from
// a finished trace; this example runs the same mathematics online. A
// StreamMonitor rides the simulator's Observer hook, closes a fixed
// estimation window every 1500 virtual slots, inverts the channel model
// per window, and flags the cheater while the run is still in flight —
// printing the flag event the instant it happens and, at the end, how
// many virtual slots the observer needed (the detection latency).
//
// Run with:
//
//	go run ./examples/streaming-detection
package main

import (
	"fmt"
	"io"
	"os"

	"selfishmac"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {

	// A 10-node network at the basic-access efficient NE... except node 0,
	// which secretly runs an eighth of the agreed contention window.
	const n = 10
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(n, selfishmac.Basic))
	if err != nil {
		return err
	}
	ne, err := game.FindPaperNE()
	if err != nil {
		return err
	}
	cw := selfishmac.UniformCW(ne.WStar, n)
	const cheater = 0
	cw[cheater] = ne.WStar / 8
	fmt.Fprintf(w, "announced NE CW: %d; node %d secretly runs %d\n\n", ne.WStar, cheater, cw[cheater])
	cfg := selfishmac.DefaultSimConfig(selfishmac.Basic, cw, 60e6, 1) // 60 s

	// The monitor flags a peer the moment a window's estimate Ŵ drops
	// under Beta·W*. OnFlag fires synchronously from the engine hot loop.
	firstFlag := make([]int64, n)
	for i := range firstFlag {
		firstFlag[i] = -1
	}
	mon, err := selfishmac.NewStreamMonitor(selfishmac.StreamMonitorConfig{
		Nodes:       n,
		WindowSlots: 1500,
		MaxStage:    cfg.MaxStage,
		ExpectedCW:  ne.WStar,
		Beta:        0.6,
		OnFlag: func(ev selfishmac.StreamFlagEvent) {
			if firstFlag[ev.Node] < 0 {
				firstFlag[ev.Node] = ev.EndSlot
				fmt.Fprintf(w, "FLAG  slot %-7d node %d  window %-3d Ŵ=%.1f  (margin %.2f < β=0.60)\n",
					ev.EndSlot, ev.Node, ev.Window, ev.EstCW, ev.Margin)
			}
		},
	})
	if err != nil {
		return err
	}

	// Attach the monitor through the Observer hook and run: the trajectory
	// is bit-identical with or without it.
	cfg.Observer = mon
	res, err := selfishmac.Simulate(cfg)
	if err != nil {
		return err
	}
	mon.Finish(res.Slots)

	fmt.Fprintf(w, "\nrun: %d virtual slots over %.0f s, %d estimation windows, %d flag events\n\n",
		res.Slots, res.Time/1e6, mon.Windows(), mon.Flags())
	fmt.Fprintf(w, "%-6s %-9s %-8s %s\n", "node", "true CW", "flags", "slots to first flag")
	for i := 0; i < n; i++ {
		latency := "never flagged"
		if s := mon.FirstFlagSlot(i); s >= 0 {
			latency = fmt.Sprintf("%d", s)
		}
		fmt.Fprintf(w, "%-6d %-9d %-8d %s\n", i, cw[i], mon.NodeFlags(i), latency)
	}
	if s := mon.FirstFlagSlot(cheater); s >= 0 {
		fmt.Fprintf(w, "\nthe observer needed %d virtual slots to catch node %d — a GTFT peer\n", s, cheater)
		fmt.Fprintln(w, "could start punishing that early, without waiting for the trace to end.")
	}
	return nil
}
