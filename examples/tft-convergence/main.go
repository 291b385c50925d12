// TFT convergence: run the repeated MAC game under three scenarios —
// heterogeneous TFT starts converging to the minimum CW, a malicious
// player dragging the whole network down, and GTFT absorbing observation
// noise that ruins plain TFT.
//
// Run with:
//
//	go run ./examples/tft-convergence
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
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(4, selfishmac.Basic))
	if err != nil {
		return err
	}
	ne, err := game.FindEfficientNE()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "4-player basic-access game, efficient NE Wc* = %d\n\n", ne.WStar)

	// Scenario 1: heterogeneous TFT initials converge to the minimum in
	// one stage (the paper's fairness argument).
	fmt.Fprintln(w, "-- scenario 1: TFT from heterogeneous starts")
	if err := runAndPrint(w, game, []selfishmac.Strategy{
		selfishmac.TFT{Initial: 2 * ne.WStar},
		selfishmac.TFT{Initial: ne.WStar},
		selfishmac.TFT{Initial: ne.WStar / 2},
		selfishmac.TFT{Initial: 3 * ne.WStar / 2},
	}, 5); err != nil {
		return err
	}

	// Scenario 2: one malicious node pinned far below Wc* (Section V.E):
	// TFT retaliation drags everyone down with it.
	fmt.Fprintln(w, "-- scenario 2: malicious player at W=8")
	if err := runAndPrint(w, game, []selfishmac.Strategy{
		selfishmac.Constant{W: 8, Label: "malicious"},
		selfishmac.TFT{Initial: ne.WStar},
		selfishmac.TFT{Initial: ne.WStar},
		selfishmac.TFT{Initial: ne.WStar},
	}, 5); err != nil {
		return err
	}

	// Scenario 3: ±15% observation noise. Plain TFT ratchets downward
	// (it matches the *minimum* of noisy readings each stage); GTFT with
	// an averaging window and tolerance holds the NE.
	fmt.Fprintln(w, "-- scenario 3: observation noise, TFT vs GTFT (30 stages)")
	noise := func(r *selfishmac.RandSource, w int) int {
		return int(float64(w) * r.UniformRange(0.85, 1.15))
	}
	tft := make([]selfishmac.Strategy, 4)
	gtft := make([]selfishmac.Strategy, 4)
	for i := range tft {
		tft[i] = selfishmac.TFT{Initial: ne.WStar}
		gtft[i] = selfishmac.GTFT{Initial: ne.WStar, R0: 5, Beta: 0.8}
	}
	tftFinal, err := finalProfile(game, tft, noise, 30)
	if err != nil {
		return err
	}
	gtftFinal, err := finalProfile(game, gtft, noise, 30)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "TFT  after 30 noisy stages: %v (started at %d)\n", tftFinal, ne.WStar)
	fmt.Fprintf(w, "GTFT after 30 noisy stages: %v (started at %d)\n\n", gtftFinal, ne.WStar)
	return nil
}

func runAndPrint(w io.Writer, game *selfishmac.Game, strats []selfishmac.Strategy, stages int) error {
	eng, err := selfishmac.NewEngine(game, strats)
	if err != nil {
		return err
	}
	tr, err := eng.Run(stages)
	if err != nil {
		return err
	}
	for k, st := range tr.Stages {
		fmt.Fprintf(w, "stage %d: profile=%v  global utility=%.4g/us\n", k, st.Profile, sum(st.UtilityRates))
	}
	if tr.ConvergedAt >= 0 {
		fmt.Fprintf(w, "=> converged at stage %d to CW %d\n\n", tr.ConvergedAt, tr.ConvergedCW)
	} else {
		fmt.Fprintln(w, "=> no convergence")
	}
	return nil
}

func finalProfile(game *selfishmac.Game, strats []selfishmac.Strategy, noise selfishmac.ObservationNoise, stages int) ([]int, error) {
	eng, err := selfishmac.NewEngine(game, strats, selfishmac.WithNoise(noise), selfishmac.WithSeed(7))
	if err != nil {
		return nil, err
	}
	tr, err := eng.Run(stages)
	if err != nil {
		return nil, err
	}
	return tr.FinalProfile(), nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
