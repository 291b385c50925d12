// Detect a cheater: the paper's TFT strategy assumes every node can
// observe its peers' contention windows (its ref [3]). This example shows
// how: a promiscuous observer counts who transmits in each virtual slot,
// inverts the channel model to estimate each peer's CW, and flags the
// node undercutting the announced efficient NE.
//
// Run with:
//
//	go run ./examples/detect-cheater
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

	// A 10-node network at the basic-access efficient NE... except node 3,
	// which secretly runs a quarter of the agreed contention window.
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(10, selfishmac.Basic))
	if err != nil {
		return err
	}
	ne, err := game.FindPaperNE()
	if err != nil {
		return err
	}
	cw := selfishmac.UniformCW(ne.WStar, 10)
	const cheater = 3
	cw[cheater] = ne.WStar / 4
	fmt.Fprintf(w, "announced NE CW: %d; node %d secretly runs %d\n\n", ne.WStar, cheater, cw[cheater])

	// How long must the observer watch? The estimator's error shrinks as
	// 1/sqrt(slots); ask for 10% relative error on a conforming peer.
	slots, err := selfishmac.RequiredObservationSlots(ne.TauStar, 0.10)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "window for 10%% CW accuracy at tau*=%.4f: %d virtual slots\n", ne.TauStar, slots)

	// Simulate the network and collect the observations.
	cfg := selfishmac.DefaultSimConfig(selfishmac.Basic, cw, 120e6, 1) // 120 s
	res, err := selfishmac.Simulate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "observed %d virtual slots over %.0f s\n\n", res.Slots, res.Time/1e6)

	// Estimate every peer's CW and apply the GTFT-style tolerance test.
	det := selfishmac.MisbehaviorDetector{ExpectedCW: ne.WStar, Beta: 0.8, MinSlots: slots}
	verdicts, err := det.Inspect(selfishmac.ObservationsFromSim(res), cfg.MaxStage)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-10s %-12s %-10s %s\n", "node", "true CW", "estimated", "margin", "verdict")
	for i, v := range verdicts {
		verdict := "ok"
		if v.Misbehaving {
			verdict = "MISBEHAVING"
		}
		fmt.Fprintf(w, "%-6d %-10d %-12.1f %-10.2f %s\n", i, cw[i], v.CW, v.Margin, verdict)
	}
	fmt.Fprintln(w, "\nwith the cheater identified, TFT/GTFT peers would now match its CW —")
	fmt.Fprintln(w, "the punishment that makes undercutting unprofitable for long-sighted players.")
	return nil
}
