// Multihop: the paper's Section VII.B scenario at a reduced scale — nodes
// move by random waypoint in a square area, each picks the efficient-NE CW
// of its local single-hop game, TFT drags everyone to the minimum Wm, and
// the spatial simulator measures how close Wm comes to the optimal common
// operating point.
//
// Run with:
//
//	go run ./examples/multihop [-nodes 50] [-duration 10]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"selfishmac"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	flags := flag.NewFlagSet("multihop", flag.ExitOnError)
	nodes := flags.Int("nodes", 50, "number of nodes (paper: 100)")
	duration := flags.Float64("duration", 10, "simulated seconds per operating point")
	seed := flags.Uint64("seed", 1, "random seed")
	flags.Parse(args) // a bad flag prints the usage and exits with status 2

	topo := selfishmac.PaperTopology(*seed)
	topo.N = *nodes
	nw, err := selfishmac.NewNetwork(topo)
	if err != nil {
		return err
	}
	// Sample the random-waypoint stationary distribution rather than the
	// uniform t=0 placement (300 s of mobility warm-up).
	if err := nw.Step(300); err != nil {
		return err
	}
	fmt.Fprintf(w, "network: %d nodes in %.0fx%.0f m, range %.0f m, mean degree %.1f, connected=%v\n",
		nw.N(), topo.Width, topo.Height, topo.Range, nw.MeanDegree(), nw.Connected())

	// Each node plays the efficient NE of its (deg+1)-player local game.
	sel, err := selfishmac.NewLocalCWSelector(selfishmac.DefaultConfig(2, selfishmac.RTSCTS))
	if err != nil {
		return err
	}
	profile, err := selfishmac.LocalCWProfile(nw, sel)
	if err != nil {
		return err
	}
	hist := map[int]int{}
	for _, w := range profile {
		hist[w]++
	}
	fmt.Fprintf(w, "local-NE CW histogram: %v\n", hist)

	// Theorem 3: TFT converges to Wm = min_i W_i within the diameter.
	wm := selfishmac.ConvergedCW(profile)
	final, stages, converged := selfishmac.TFTConverge(nw.Rows(), profile, 10*nw.N())
	uniform := true
	for _, w := range final {
		if w != wm {
			uniform = false
			break
		}
	}
	fmt.Fprintf(w, "TFT convergence: Wm=%d, stages=%d, converged=%v, uniform=%v (paper scenario: Wm=26)\n",
		wm, stages, converged, uniform)

	// Section VII.B measurement: sweep the common CW and compare.
	res, err := selfishmac.MeasureQuasiOptimality(nw, selfishmac.QuasiOptConfig{
		Sim:              selfishmac.DefaultSpatialSimConfig(*duration*1e6, *seed),
		Wm:               wm,
		SweepMultipliers: []float64{0.4, 0.6, 0.8, 1.25, 1.6, 2.2, 3},
		Schedule:         selfishmac.ReplicationSchedule{MaxReps: 2},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "swept common CWs: %v\n", res.SweptCWs)
	fmt.Fprintf(w, "global payoff: %.4g/us at Wm vs best %.4g/us at W=%d  => ratio %.3f (paper: >= 0.97)\n",
		res.GlobalAtWm, res.GlobalMax, res.BestGlobalW, res.GlobalRatio)
	fmt.Fprintf(w, "per-node payoff ratio: min=%.3f mean=%.3f (paper: min >= 0.96)\n",
		res.MinPerNodeRatio, res.MeanPerNodeRatio)

	// Hidden-terminal factor: the Section VI.A approximation.
	sim := selfishmac.DefaultSpatialSimConfig(*duration*1e6, *seed+1)
	sim.CW = profileOf(wm, nw.N())
	spatial, err := selfishmac.SimulateSpatial(nw, sim)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "hidden-terminal loss fraction at Wm: %.4f (p_hn = %.4f)\n",
		spatial.HiddenFraction, 1-spatial.HiddenFraction)
	return nil
}

func profileOf(w, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = w
	}
	return out
}
