// NE search: the Section V.C distributed protocol. A leader walks the
// common contention window while every other node follows its Ready
// broadcasts, measuring its own payoff at each step, until the payoff
// peaks — with no knowledge of the population size. The example compares
// the paper's unit-step walk against the accelerated variant and shows
// both surviving 20% broadcast loss.
//
// Run with:
//
//	go run ./examples/ne-search
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
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(10, selfishmac.RTSCTS))
	if err != nil {
		return err
	}
	exact, err := game.FindEfficientNE()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "10-player RTS/CTS game; exact efficient NE Wc* = %d\n\n", exact.WStar)

	const w0 = 8
	opts := selfishmac.SearchOptions{WMax: game.Config().WMax}

	// Paper's unit-step walk with exact payoff measurement.
	env1, err := selfishmac.NewAnalyticSearchEnv(game, 0, w0, selfishmac.FaultConfig{})
	if err != nil {
		return err
	}
	paper, err := selfishmac.RunSearch(env1, 0, w0, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper walk from W0=%d:        found W=%d in %d probes\n", w0, paper.W, paper.ProbeCount())

	// Accelerated variant: geometric expansion + step-halving refinement.
	env2, err := selfishmac.NewAnalyticSearchEnv(game, 0, w0, selfishmac.FaultConfig{})
	if err != nil {
		return err
	}
	accel, err := selfishmac.RunAcceleratedSearch(env2, 0, w0, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "accelerated from W0=%d:       found W=%d in %d probes\n", w0, accel.W, accel.ProbeCount())
	fmt.Fprintln(w, "probe trace (accelerated):")
	for _, p := range accel.Probes {
		fmt.Fprintf(w, "  W=%4d payoff=%.5g\n", p.W, p.Payoff)
	}

	// Lossy broadcast medium: 20% of Ready messages are missed per node,
	// so the leader measures heterogeneous profiles. The payoff plateau
	// keeps the announced value near-optimal anyway.
	lossyEnv, err := selfishmac.NewAnalyticSearchEnv(game, 0, w0, selfishmac.FaultConfig{Seed: 42, DropProb: 0.2})
	if err != nil {
		return err
	}
	lossy, err := selfishmac.RunSearch(lossyEnv, 0, w0, opts)
	if err != nil {
		return err
	}
	u, err := game.UniformUtilityRate(lossy.W)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwith 20%% broadcast loss:     found W=%d in %d probes (payoff %.1f%% of peak)\n",
		lossy.W, lossy.ProbeCount(), 100*u/exact.UStar)
	return nil
}
