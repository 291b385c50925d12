// Rate control: the extension the paper's conclusion proposes — keep the
// game-theoretic framework, swap the strategy space. Here nodes choose
// their packet size at a fixed contention window; bit errors make very
// long packets fragile, and airtime is the shared resource. The example
// shows the commons tragedy of myopic play and how TFT with long-sighted
// players recovers the social optimum, mirroring the CW game.
//
// Run with:
//
//	go run ./examples/rate-control
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

	// Anchor the channel at the CW game's efficient NE for 10 nodes.
	cwGame, err := selfishmac.NewGame(selfishmac.DefaultConfig(10, selfishmac.Basic))
	if err != nil {
		return err
	}
	ne, err := cwGame.FindPaperNE()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "channel: 10 nodes, basic access, CW fixed at the NE (%d)\n\n", ne.WStar)

	cfg := selfishmac.DefaultRateControlConfig(10, ne.WStar, selfishmac.Basic)
	game, err := selfishmac.NewRateControlGame(cfg)
	if err != nil {
		return err
	}

	// The per-node utility as a function of the common packet size.
	fmt.Fprintln(w, "common payload sweep (per-node utility rate, /us):")
	for _, L := range []float64{512, 1024, 2048, 4096, 8192, 16384, 32768} {
		fmt.Fprintf(w, "  L = %6.0f bits: u = %.4g\n", L, game.UniformUtility(L))
	}

	out, err := game.Analyze()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsocial optimum:   L = %6.0f bits (u = %.4g/us)\n", out.LSocial, out.USocial)
	fmt.Fprintf(w, "one-shot NE:      L = %6.0f bits (u = %.4g/us)\n", out.LNE, out.UNE)
	fmt.Fprintf(w, "escalation %.2fx, price of anarchy %.3f\n\n", out.Escalation, out.PriceOfAnarchy)

	// Why it escalates: the best response to the social optimum.
	br, err := game.BestResponse(out.LSocial)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "best response to everyone at %.0f bits: %.0f bits\n", out.LSocial, br)
	fmt.Fprintf(w, "  deviator utility: %.4g/us vs conforming %.4g/us\n",
		game.DeviatorUtility(br, out.LSocial), game.UniformUtility(out.LSocial))
	fmt.Fprintln(w, "  longer packets earn the deviator more bits while the airtime cost")
	fmt.Fprintln(w, "  lands in everyone's shared slot time — a commons externality.")

	uTFT, err := game.TFTOutcome()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwith TFT (match the largest observed payload) and long-sighted players,\n")
	fmt.Fprintf(w, "the repeated game sustains the social optimum: u = %.4g/us (%.0f%% above the NE)\n",
		uTFT, 100*(uTFT/out.UNE-1))
	return nil
}
