// Short-sighted players (Section V.D): how much does a deviator with
// discount factor delta_s gain by undercutting the efficient NE before
// TFT retaliation catches up — and what does its deviation cost the
// network? The example also reproduces the reconciliation with Cagalj et
// al. (the paper's ref [2]): short-sighted selfishness collapses the
// network, long-sighted selfishness sustains the efficient NE.
//
// Run with:
//
//	go run ./examples/short-sighted
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
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(10, selfishmac.Basic))
	if err != nil {
		return err
	}
	ne, err := game.FindEfficientNE()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "10-player basic-access game, efficient NE Wc* = %d\n", ne.WStar)
	fmt.Fprintln(w, "\ndeviator analysis vs its discount factor (TFT reaction lag = 1 stage):")
	fmt.Fprintf(w, "%-10s %-9s %-12s %-14s\n", "delta_s", "best Ws", "gain ratio", "network loss")
	for _, d := range []float64{0, 0.3, 0.6, 0.9, 0.99, 0.999, 0.9999} {
		res, err := game.ShortSightedBest(ne, d, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10g %-9d %-12.4f %-14.4f\n", d, res.WBest, res.GainRatio, res.GlobalLossFrac)
	}

	fmt.Fprintln(w, "\nslower punishment helps the deviator (delta_s = 0.9):")
	fmt.Fprintf(w, "%-6s %-9s %-12s\n", "lag", "best Ws", "gain ratio")
	for _, lag := range []int{1, 2, 5, 10} {
		res, err := game.ShortSightedBest(ne, 0.9, lag)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d %-9d %-12.4f\n", lag, res.WBest, res.GainRatio)
	}

	// Lemma 4 in action: one stage of deviation payoffs.
	fmt.Fprintln(w, "\nLemma 4 stage payoffs around the NE (utility rates, /us):")
	for _, wDev := range []int{ne.WStar / 2, ne.WStar, ne.WStar * 2} {
		dev, err := game.Deviation(wDev, ne.WStar)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "deviate to W=%4d: deviator=%.4g peers=%.4g uniform=%.4g (lemma 4 holds: %v)\n",
			wDev, dev.UDev, dev.UPeer, dev.UUniform, dev.SatisfiesLemma4())
	}
	return nil
}
