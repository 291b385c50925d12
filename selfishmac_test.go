package selfishmac_test

import (
	"math"
	"testing"

	"selfishmac"
)

// The facade must support the full quick-start flow without touching
// internal packages.
func TestFacadeQuickStart(t *testing.T) {
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(20, selfishmac.RTSCTS))
	if err != nil {
		t.Fatal(err)
	}
	ne, err := game.FindPaperNE()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(ne.WStar-48)) > 4 {
		t.Fatalf("Wc* = %d, want ~48 (paper Table III)", ne.WStar)
	}
	ref, err := game.Refine(ne)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Efficient != ne.WStar {
		t.Fatalf("refined NE %d != Wc* %d", ref.Efficient, ne.WStar)
	}
}

func TestFacadeRepeatedGame(t *testing.T) {
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(3, selfishmac.Basic))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := selfishmac.NewEngine(game, []selfishmac.Strategy{
		selfishmac.TFT{Initial: 200},
		selfishmac.TFT{Initial: 120},
		selfishmac.GTFT{Initial: 300, R0: 2, Beta: 0.9},
	}, selfishmac.WithStopOnConvergence(3))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConvergedCW != 120 {
		t.Fatalf("converged to %d, want the minimum initial 120", tr.ConvergedCW)
	}
}

func TestFacadeSimulator(t *testing.T) {
	res, err := selfishmac.Simulate(selfishmac.DefaultSimConfig(selfishmac.Basic, selfishmac.UniformCW(76, 5), 10e6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0.5 {
		t.Fatalf("throughput %g suspiciously low at the NE", res.Throughput)
	}
}

func TestFacadeChannelModel(t *testing.T) {
	p := selfishmac.DefaultPHY()
	model, err := selfishmac.NewChannelModel(p.MustTiming(selfishmac.RTSCTS), p.MaxBackoffStage)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.SolveUniform(48, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Tau[0] <= 0 || sol.Tau[0] >= 1 {
		t.Fatalf("tau = %g", sol.Tau[0])
	}
}

func TestFacadeMultihop(t *testing.T) {
	cfg := selfishmac.PaperTopology(1)
	cfg.N = 30
	nw, err := selfishmac.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := selfishmac.NewLocalCWSelector(selfishmac.DefaultConfig(2, selfishmac.RTSCTS))
	if err != nil {
		t.Fatal(err)
	}
	profile, err := selfishmac.LocalCWProfile(nw, sel)
	if err != nil {
		t.Fatal(err)
	}
	wm := selfishmac.ConvergedCW(profile)
	final, _, converged := selfishmac.TFTConverge(nw.Rows(), profile, 1000)
	if !converged {
		t.Fatal("TFT did not converge")
	}
	if nw.Connected() {
		for _, w := range final {
			if w != wm {
				t.Fatalf("connected network converged to %v, want uniform %d", final, wm)
			}
		}
	}
	res, err := selfishmac.SimulateSpatial(nw, spatialCfg(wm, nw.N()))
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalPayoffRate() <= 0 {
		t.Fatalf("global payoff %g at the converged NE", res.GlobalPayoffRate())
	}
}

func spatialCfg(w, n int) selfishmac.SpatialSimConfig {
	cfg := selfishmac.DefaultSpatialSimConfig(2e6, 9)
	cfg.CW = make([]int, n)
	for i := range cfg.CW {
		cfg.CW[i] = w
	}
	return cfg
}

func TestFacadeSearch(t *testing.T) {
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(5, selfishmac.RTSCTS))
	if err != nil {
		t.Fatal(err)
	}
	ne, err := game.FindEfficientNE()
	if err != nil {
		t.Fatal(err)
	}
	env, err := selfishmac.NewAnalyticSearchEnv(game, 0, 4, selfishmac.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := selfishmac.RunSearch(env, 0, 4, selfishmac.SearchOptions{WMax: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != ne.WStar {
		t.Fatalf("search found %d, NE is %d", res.W, ne.WStar)
	}
}

func TestVersion(t *testing.T) {
	if selfishmac.Version == "" {
		t.Fatal("empty version")
	}
}

func TestFacadeDetection(t *testing.T) {
	p := selfishmac.DefaultPHY()
	res, err := selfishmac.Simulate(selfishmac.DefaultSimConfig(selfishmac.Basic, []int{40, 160, 160, 160}, 60e6, 2))
	if err != nil {
		t.Fatal(err)
	}
	obs := selfishmac.ObservationsFromSim(res)
	ests, err := selfishmac.EstimateAllCWs(obs, p.MaxBackoffStage)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ests[0].CW-40) > 8 {
		t.Errorf("estimated cheater CW %.1f, want ~40", ests[0].CW)
	}
	det := selfishmac.MisbehaviorDetector{ExpectedCW: 160, Beta: 0.8}
	verdicts, err := det.Inspect(obs, p.MaxBackoffStage)
	if err != nil {
		t.Fatal(err)
	}
	if !verdicts[0].Misbehaving || verdicts[1].Misbehaving {
		t.Errorf("verdicts wrong: %+v", verdicts[:2])
	}
	if _, err := selfishmac.EstimateCW(0.05, 0.2, 6); err != nil {
		t.Errorf("EstimateCW: %v", err)
	}
	if slots, err := selfishmac.RequiredObservationSlots(0.01, 0.1); err != nil || slots <= 0 {
		t.Errorf("RequiredObservationSlots: %d, %v", slots, err)
	}
}

func TestFacadeRateControl(t *testing.T) {
	g, err := selfishmac.NewRateControlGame(selfishmac.DefaultRateControlConfig(10, 336, selfishmac.Basic))
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if out.PriceOfAnarchy <= 1 {
		t.Errorf("PoA = %g, want > 1", out.PriceOfAnarchy)
	}
}

func TestFacadeRandSource(t *testing.T) {
	r := selfishmac.NewRandSource(42)
	v := r.UniformRange(0, 1)
	if v < 0 || v >= 1 {
		t.Fatalf("UniformRange out of bounds: %g", v)
	}
}

func TestFacadeMultihopEngine(t *testing.T) {
	cfg := selfishmac.PaperTopology(3)
	cfg.N = 12
	cfg.Width, cfg.Height = 400, 400
	nw, err := selfishmac.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strats := make([]selfishmac.Strategy, nw.N())
	for i := range strats {
		strats[i] = selfishmac.TFT{Initial: 20 + 3*i}
	}
	eng, err := selfishmac.NewMultihopEngine(nw, strats, selfishmac.DefaultSpatialSimConfig(1e6, 4))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.WithStopWindow(2).Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Connected() && tr.ConvergedCW != 20 {
		t.Errorf("converged to %d, want the minimum initial 20", tr.ConvergedCW)
	}
}

func TestFacadeStrategiesExtra(t *testing.T) {
	grim := selfishmac.GrimTrigger{Initial: 100, PunishCW: 2}
	if w := grim.ChooseCW(0, [][]int{{100, 30}}, nil); w != 2 {
		t.Errorf("grim did not punish: %d", w)
	}
	dev := selfishmac.Deviant{Deviation: 5, Base: 50, Stages: 1}
	if w := dev.ChooseCW(0, nil, nil); w != 5 {
		t.Errorf("deviant first stage: %d", w)
	}
}
