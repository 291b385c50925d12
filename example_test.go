package selfishmac_test

// Runnable documentation examples (go test executes these and checks the
// Output comments; godoc renders them on the package page).

import (
	"fmt"

	"selfishmac"
)

// The quick-start: compute the efficient NE of the paper's Table III
// 20-player RTS/CTS game.
func ExampleNewGame() {
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(20, selfishmac.RTSCTS))
	if err != nil {
		fmt.Println(err)
		return
	}
	ne, err := game.FindPaperNE()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Wc* = %d\n", ne.WStar)
	// Output: Wc* = 47
}

// TFT players converge to the minimum initial contention window in one
// stage and stay there.
func ExampleTFT() {
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(3, selfishmac.Basic))
	if err != nil {
		fmt.Println(err)
		return
	}
	eng, err := selfishmac.NewEngine(game, []selfishmac.Strategy{
		selfishmac.TFT{Initial: 300},
		selfishmac.TFT{Initial: 120},
		selfishmac.TFT{Initial: 200},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	trace, err := eng.Run(3)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(trace.Stages[0].Profile)
	fmt.Println(trace.Stages[1].Profile)
	fmt.Println("converged at stage", trace.ConvergedAt, "to CW", trace.ConvergedCW)
	// Output:
	// [300 120 200]
	// [120 120 120]
	// converged at stage 1 to CW 120
}

// The channel model solves the coupled (tau, p) fixed point of the
// paper's eqs. (2)-(3) for any contention-window profile.
func ExampleChannelModel() {
	p := selfishmac.DefaultPHY()
	model, err := selfishmac.NewChannelModel(p.MustTiming(selfishmac.Basic), p.MaxBackoffStage)
	if err != nil {
		fmt.Println(err)
		return
	}
	sol, err := model.SolveUniform(76, 5) // the paper's Table II point
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("tau = %.4f, p = %.4f, throughput = %.3f\n", sol.Tau[0], sol.P[0], sol.Throughput)
	// Output: tau = 0.0234, p = 0.0904, throughput = 0.833
}

// EstimateCW inverts the channel model: the observability TFT relies on.
func ExampleEstimateCW() {
	p := selfishmac.DefaultPHY()
	model, err := selfishmac.NewChannelModel(p.MustTiming(selfishmac.Basic), p.MaxBackoffStage)
	if err != nil {
		fmt.Println(err)
		return
	}
	sol, err := model.SolveUniform(336, 20)
	if err != nil {
		fmt.Println(err)
		return
	}
	// A promiscuous observer measuring this tau and p recovers the CW.
	w, err := selfishmac.EstimateCW(sol.Tau[0], sol.P[0], p.MaxBackoffStage)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("estimated CW = %.0f\n", w)
	// Output: estimated CW = 336
}

// The Section VII.B measurement on a small static network: every node
// plays its local efficient-NE CW, TFT drags the network to the minimum
// Wm, and a common-CW sweep around Wm shows how little any other uniform
// operating point improves on it.
func ExampleMeasureQuasiOptimality() {
	topo := selfishmac.PaperTopology(1)
	topo.N, topo.Width, topo.Height = 30, 500, 500
	nw, err := selfishmac.NewNetwork(topo)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("connected=%v mean degree %.1f\n", nw.Connected(), nw.MeanDegree())
	sel, err := selfishmac.NewLocalCWSelector(selfishmac.DefaultConfig(2, selfishmac.RTSCTS))
	if err != nil {
		fmt.Println(err)
		return
	}
	profile, err := selfishmac.LocalCWProfile(nw, sel)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := selfishmac.MeasureQuasiOptimality(nw, selfishmac.QuasiOptConfig{
		Sim:              selfishmac.DefaultSpatialSimConfig(2e6, 1),
		Wm:               selfishmac.ConvergedCW(profile),
		SweepMultipliers: []float64{0.5, 2},
		Schedule:         selfishmac.ReplicationSchedule{MaxReps: 2},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("swept CWs:", res.SweptCWs, "reps:", res.RepsPerCW)
	fmt.Printf("global ratio %.3f, best W=%d\n", res.GlobalRatio, res.BestGlobalW)
	fmt.Printf("per-node ratio min %.3f mean %.3f\n", res.MinPerNodeRatio, res.MeanPerNodeRatio)
	// Output:
	// connected=true mean degree 11.8
	// swept CWs: [6 12 24] reps: [2 2 2]
	// global ratio 0.939, best W=6
	// per-node ratio min 0.143 mean 0.761
}
