// Quickstart: compute the efficient Nash equilibrium of the selfish MAC
// game for several population sizes and validate one operating point with
// the event-driven DCF simulator.
//
// Run with:
//
//	go run ./examples/quickstart
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

	fmt.Fprintln(w, "Efficient NE of the selfish 802.11 MAC game (paper Tables II/III)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s %-6s %-12s %-12s %-10s\n", "mode", "n", "Wc* (paper)", "Wc* (ours)", "tau*")
	paper := map[selfishmac.AccessMode]map[int]int{
		selfishmac.Basic:  {5: 76, 20: 336, 50: 879},
		selfishmac.RTSCTS: {5: 22, 20: 48, 50: 116},
	}
	for _, mode := range []selfishmac.AccessMode{selfishmac.Basic, selfishmac.RTSCTS} {
		for _, n := range []int{5, 20, 50} {
			game, err := selfishmac.NewGame(selfishmac.DefaultConfig(n, mode))
			if err != nil {
				return err
			}
			ne, err := game.FindPaperNE()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8s %-6d %-12d %-12d %.5f\n", mode, n, paper[mode][n], ne.WStar, ne.TauStar)
		}
	}

	// Validate the basic n=5 equilibrium with the simulator: measured
	// per-node transmission probability should match the analytic tau*.
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(5, selfishmac.Basic))
	if err != nil {
		return err
	}
	ne, err := game.FindPaperNE()
	if err != nil {
		return err
	}
	cw := selfishmac.UniformCW(ne.WStar, 5)
	res, err := selfishmac.Simulate(selfishmac.DefaultSimConfig(selfishmac.Basic, cw, 100e6, 1)) // 100 s
	if err != nil {
		return err
	}
	var tau float64
	for _, nd := range res.Nodes {
		tau += nd.MeasuredTau
	}
	tau /= float64(len(res.Nodes))
	fmt.Fprintln(w)
	fmt.Fprintf(w, "simulation check (basic, n=5, W=%d, 100 s):\n", ne.WStar)
	fmt.Fprintf(w, "  analytic tau* = %.5f, simulated tau = %.5f\n", ne.TauStar, tau)
	fmt.Fprintf(w, "  analytic throughput = %.4f, simulated = %.4f\n", ne.ThroughputStar, res.Throughput)
	return nil
}
