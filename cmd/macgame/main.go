// Command macgame is the interactive CLI for the selfishmac library. It
// exposes the paper's machinery as subcommands:
//
//	macgame ne       -n 20 -mode rtscts          # efficient NE of the MAC game
//	macgame sweep    -n 20 -mode basic           # payoff vs CW curve (Figures 2-3)
//	macgame simulate -n 5 -w 76 -duration 100    # event-driven DCF simulation
//	macgame game     -strategies tft:300,tft:150,constant:8 -stages 10
//	macgame multihop -nodes 100 -duration 20     # Section VII.B scenario
//	macgame search   -n 10 -w0 8 -accel          # Section V.C NE search
//
// Durations are in seconds of simulated time. All randomness is seeded
// (-seed) and runs are reproducible.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"selfishmac"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "macgame:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return errors.New("missing subcommand")
	}
	switch args[0] {
	case "ne":
		return cmdNE(args[1:])
	case "sweep":
		return cmdSweep(args[1:])
	case "simulate":
		return cmdSimulate(args[1:])
	case "game":
		return cmdGame(args[1:])
	case "multihop":
		return cmdMultihop(args[1:])
	case "search":
		return cmdSearch(args[1:])
	case "observe":
		return cmdObserve(args[1:])
	case "packets":
		return cmdPackets(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: macgame <subcommand> [flags]

subcommands:
  ne        compute the Nash equilibria of the single-hop MAC game
  sweep     print the global payoff U/C as a function of the common CW
  simulate  run the event-driven single-hop DCF simulator
  game      run the repeated game with per-player strategies
  multihop  run the Section VII.B multi-hop scenario
  search    run the Section V.C distributed NE search
  observe   estimate peers' CWs from a simulated run and flag cheaters
  packets   analyze the packet-size (rate-control) extension game

run "macgame <subcommand> -h" for flags`)
}

func parseMode(s string) (selfishmac.AccessMode, error) {
	switch strings.ToLower(s) {
	case "basic":
		return selfishmac.Basic, nil
	case "rtscts", "rts/cts", "rts-cts":
		return selfishmac.RTSCTS, nil
	default:
		return 0, fmt.Errorf("unknown access mode %q (want basic or rtscts)", s)
	}
}

func cmdNE(args []string) error {
	fs := flag.NewFlagSet("ne", flag.ContinueOnError)
	n := fs.Int("n", 20, "number of nodes")
	mode := fs.String("mode", "basic", "access mode: basic or rtscts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(*n, m))
	if err != nil {
		return err
	}
	paper, err := game.FindPaperNE()
	if err != nil {
		return err
	}
	exact, err := game.FindEfficientNE()
	if err != nil {
		return err
	}
	ref, err := game.Refine(exact)
	if err != nil {
		return err
	}
	fmt.Printf("game: n=%d mode=%s\n", *n, m)
	fmt.Printf("efficient NE (paper's e<<g condition): Wc* = %d  (tau* = %.5f, throughput = %.4f)\n",
		paper.WStar, paper.TauStar, paper.ThroughputStar)
	fmt.Printf("efficient NE (exact utility):          Wc* = %d  (per-node utility rate %.4g /us)\n",
		exact.WStar, exact.UStar)
	fmt.Printf("NE set [Wc0, Wc*] = [%d, %d]  (%d equilibria)\n", exact.W0, exact.WStar, exact.Count)
	fmt.Printf("refinement: fair=%v, welfare maximizer=%d, Pareto-optimal=%v -> efficient NE %d\n",
		ref.Fair, ref.SocialWelfareMaximizer, ref.ParetoOptimal, ref.Efficient)
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	n := fs.Int("n", 20, "number of nodes")
	mode := fs.String("mode", "basic", "access mode: basic or rtscts")
	wmax := fs.Int("wmax", 0, "largest CW to evaluate (default 8x the NE)")
	points := fs.Int("points", 40, "number of CW values (log-spaced)")
	csv := fs.Bool("csv", false, "emit CSV instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *points < 2 {
		return fmt.Errorf("points %d: a log-spaced sweep needs at least 2", *points)
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(*n, m))
	if err != nil {
		return err
	}
	ne, err := game.FindPaperNE()
	if err != nil {
		return err
	}
	top := *wmax
	if top <= 0 {
		top = ne.WStar * 8
	}
	if *csv {
		fmt.Println("w,uc")
	} else {
		fmt.Printf("global payoff U/C vs common CW (n=%d, %s, Wc*=%d)\n", *n, m, ne.WStar)
	}
	seen := map[int]bool{}
	for i := 0; i < *points; i++ {
		f := float64(i) / float64(*points-1)
		w := int(math.Round(math.Pow(float64(top), f)))
		if w < 1 || seen[w] {
			continue
		}
		seen[w] = true
		u, err := game.NormalizedGlobalPayoff(w)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Printf("%d,%g\n", w, u)
		} else {
			fmt.Printf("W=%5d  U/C=%.5f %s\n", w, u, bar(u, 0.06))
		}
	}
	return nil
}

func bar(v, scale float64) string {
	if v < 0 {
		return ""
	}
	nStars := int(v / scale * 40)
	if nStars > 60 {
		nStars = 60
	}
	return strings.Repeat("*", nStars)
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	n := fs.Int("n", 5, "number of nodes")
	w := fs.Int("w", 76, "common contention window")
	cwList := fs.String("cw", "", "comma-separated per-node CWs (overrides -n/-w)")
	mode := fs.String("mode", "basic", "access mode: basic or rtscts")
	duration := fs.Float64("duration", 100, "simulated seconds")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	var cw []int
	if *cwList != "" {
		for _, tok := range strings.Split(*cwList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("bad -cw entry %q: %w", tok, err)
			}
			cw = append(cw, v)
		}
	} else {
		cw = selfishmac.UniformCW(*w, *n)
	}
	res, err := selfishmac.Simulate(selfishmac.DefaultSimConfig(m, cw, *duration*1e6, *seed))
	if err != nil {
		return err
	}
	fmt.Printf("simulated %.1f s, %d nodes, mode=%s\n", res.Time/1e6, len(cw), m)
	fmt.Printf("slots=%d (idle=%d success=%d collision=%d), throughput=%.4f\n",
		res.Slots, res.IdleSlots, res.SuccessEvents, res.CollisionEvents, res.Throughput)
	for i, nd := range res.Nodes {
		fmt.Printf("node %2d: CW=%4d attempts=%7d succ=%7d coll=%6d tau=%.5f p=%.4f payoff=%.4g/us\n",
			i, cw[i], nd.Attempts, nd.Successes, nd.Collisions, nd.MeasuredTau, nd.MeasuredP, nd.PayoffRate)
	}
	fmt.Printf("global payoff rate: %.4g/us\n", res.GlobalPayoffRate())
	return nil
}

func cmdGame(args []string) error {
	fs := flag.NewFlagSet("game", flag.ContinueOnError)
	mode := fs.String("mode", "basic", "access mode: basic or rtscts")
	stages := fs.Int("stages", 10, "stages to play")
	strategies := fs.String("strategies", "tft:300,tft:150,tft:97",
		"comma-separated strategies: tft:<W0>, gtft:<W0>:<r0>:<beta>, constant:<W>, best")
	noise := fs.Float64("noise", 0, "relative observation noise (e.g. 0.15)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *noise < 0 || math.IsNaN(*noise) {
		return fmt.Errorf("noise %g is not a non-negative number", *noise)
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	specs := strings.Split(*strategies, ",")
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(len(specs), m))
	if err != nil {
		return err
	}
	strats := make([]selfishmac.Strategy, len(specs))
	for i, spec := range specs {
		s, err := parseStrategy(game, strings.TrimSpace(spec))
		if err != nil {
			return err
		}
		strats[i] = s
	}
	opts := []selfishmac.EngineOption{selfishmac.WithSeed(*seed)}
	if *noise > 0 {
		rel := *noise
		opts = append(opts, selfishmac.WithNoise(func(r *selfishmac.RandSource, w int) int {
			return int(float64(w) * r.UniformRange(1-rel, 1+rel))
		}))
	}
	eng, err := selfishmac.NewEngine(game, strats, opts...)
	if err != nil {
		return err
	}
	tr, err := eng.Run(*stages)
	if err != nil {
		return err
	}
	for k, st := range tr.Stages {
		fmt.Printf("stage %3d: profile=%v throughput=%.4f utilities=", k, st.Profile, st.Throughput)
		for _, u := range st.UtilityRates {
			fmt.Printf(" %.3g", u)
		}
		fmt.Println()
	}
	if tr.ConvergedAt >= 0 {
		fmt.Printf("converged at stage %d to CW %d\n", tr.ConvergedAt, tr.ConvergedCW)
	} else {
		fmt.Println("did not converge")
	}
	return nil
}

func parseStrategy(game *selfishmac.Game, spec string) (selfishmac.Strategy, error) {
	parts := strings.Split(spec, ":")
	atoi := func(s string) (int, error) { return strconv.Atoi(strings.TrimSpace(s)) }
	switch parts[0] {
	case "tft":
		if len(parts) != 2 {
			return nil, fmt.Errorf("tft wants tft:<W0>, got %q", spec)
		}
		w0, err := atoi(parts[1])
		if err != nil {
			return nil, err
		}
		return selfishmac.TFT{Initial: w0}, nil
	case "gtft":
		if len(parts) != 4 {
			return nil, fmt.Errorf("gtft wants gtft:<W0>:<r0>:<beta>, got %q", spec)
		}
		w0, err := atoi(parts[1])
		if err != nil {
			return nil, err
		}
		r0, err := atoi(parts[2])
		if err != nil {
			return nil, err
		}
		beta, err := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
		if err != nil {
			return nil, err
		}
		return selfishmac.GTFT{Initial: w0, R0: r0, Beta: beta}, nil
	case "constant":
		if len(parts) != 2 {
			return nil, fmt.Errorf("constant wants constant:<W>, got %q", spec)
		}
		w, err := atoi(parts[1])
		if err != nil {
			return nil, err
		}
		return selfishmac.Constant{W: w}, nil
	case "best":
		ne, err := game.FindEfficientNE()
		if err != nil {
			return nil, err
		}
		return &selfishmac.BestResponse{Game: game, Initial: ne.WStar}, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", parts[0])
	}
}

func cmdMultihop(args []string) error {
	fs := flag.NewFlagSet("multihop", flag.ContinueOnError)
	nodes := fs.Int("nodes", 100, "number of nodes")
	duration := fs.Float64("duration", 20, "simulated seconds per operating point")
	replicas := fs.Int("replicas", 2, "replica runs per operating point")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	topo := selfishmac.PaperTopology(*seed)
	topo.N = *nodes
	nw, err := selfishmac.NewNetwork(topo)
	if err != nil {
		return err
	}
	if err := nw.Step(300); err != nil { // RWP stationary snapshot
		return err
	}
	sel, err := selfishmac.NewLocalCWSelector(selfishmac.DefaultConfig(2, selfishmac.RTSCTS))
	if err != nil {
		return err
	}
	profile, err := selfishmac.LocalCWProfile(nw, sel)
	if err != nil {
		return err
	}
	wm := selfishmac.ConvergedCW(profile)
	_, stages, converged := selfishmac.TFTConverge(nw.Rows(), profile, 10*nw.N())
	fmt.Printf("network: %d nodes, mean degree %.1f, connected=%v\n", nw.N(), nw.MeanDegree(), nw.Connected())
	fmt.Printf("local-NE CW profile: min=%d (converged Wm), TFT stages=%d converged=%v\n", wm, stages, converged)

	res, err := selfishmac.MeasureQuasiOptimality(nw, selfishmac.QuasiOptConfig{
		Sim:              selfishmac.DefaultSpatialSimConfig(*duration*1e6, *seed),
		Wm:               wm,
		SweepMultipliers: []float64{0.4, 0.6, 0.8, 1.25, 1.6, 2.2, 3},
		Schedule:         selfishmac.ReplicationSchedule{MaxReps: *replicas},
	})
	if err != nil {
		return err
	}
	fmt.Printf("swept common CWs: %v\n", res.SweptCWs)
	fmt.Printf("global payoff at Wm=%d: %.4g/us; best %.4g/us at W=%d (ratio %.3f)\n",
		wm, res.GlobalAtWm, res.GlobalMax, res.BestGlobalW, res.GlobalRatio)
	fmt.Printf("per-node payoff ratio: min=%.3f mean=%.3f\n", res.MinPerNodeRatio, res.MeanPerNodeRatio)
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	n := fs.Int("n", 10, "number of nodes")
	mode := fs.String("mode", "rtscts", "access mode: basic or rtscts")
	w0 := fs.Int("w0", 8, "starting CW")
	accel := fs.Bool("accel", false, "use the accelerated O(log W*) variant")
	drop := fs.Float64("drop", 0, "per-follower broadcast loss probability in [0, 1)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(*n, m))
	if err != nil {
		return err
	}
	exact, err := game.FindEfficientNE()
	if err != nil {
		return err
	}
	env, err := selfishmac.NewAnalyticSearchEnv(game, 0, *w0, selfishmac.FaultConfig{Seed: *seed, DropProb: *drop})
	if err != nil {
		return err
	}
	opts := selfishmac.SearchOptions{WMax: game.Config().WMax}
	var res selfishmac.SearchResult
	if *accel {
		res, err = selfishmac.RunAcceleratedSearch(env, 0, *w0, opts)
	} else {
		res, err = selfishmac.RunSearch(env, 0, *w0, opts)
	}
	if err != nil {
		return err
	}
	for _, p := range res.Probes {
		fmt.Printf("probe W=%4d payoff=%.5g\n", p.W, p.Payoff)
	}
	fmt.Printf("announced W=%d after %d probes (exact efficient NE: %d)\n",
		res.W, res.ProbeCount(), exact.WStar)
	return nil
}

func cmdObserve(args []string) error {
	fs := flag.NewFlagSet("observe", flag.ContinueOnError)
	n := fs.Int("n", 10, "number of nodes")
	expected := fs.Int("expected", 0, "expected CW (default: the paper NE for n)")
	cheatCW := fs.Int("cheat", 0, "the cheater's CW (0 = no cheater)")
	cheater := fs.Int("cheater", 0, "cheater node index")
	duration := fs.Float64("duration", 120, "observation window in seconds")
	beta := fs.Float64("beta", 0.8, "detection tolerance")
	mode := fs.String("mode", "basic", "access mode: basic or rtscts")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	exp := *expected
	if exp == 0 {
		game, err := selfishmac.NewGame(selfishmac.DefaultConfig(*n, m))
		if err != nil {
			return err
		}
		ne, err := game.FindPaperNE()
		if err != nil {
			return err
		}
		exp = ne.WStar
	}
	cw := selfishmac.UniformCW(exp, *n)
	if *cheatCW > 0 {
		if *cheater < 0 || *cheater >= *n {
			return fmt.Errorf("cheater index %d outside [0, %d)", *cheater, *n)
		}
		cw[*cheater] = *cheatCW
	}
	cfg := selfishmac.DefaultSimConfig(m, cw, *duration*1e6, *seed)
	res, err := selfishmac.Simulate(cfg)
	if err != nil {
		return err
	}
	det := selfishmac.MisbehaviorDetector{ExpectedCW: exp, Beta: *beta}
	verdicts, err := det.Inspect(selfishmac.ObservationsFromSim(res), cfg.MaxStage)
	if err != nil {
		return err
	}
	fmt.Printf("expected CW %d, %d nodes, %.0f s window (%d slots)\n", exp, *n, *duration, res.Slots)
	for i, v := range verdicts {
		flag := ""
		if v.Misbehaving {
			flag = "  <-- MISBEHAVING"
		}
		fmt.Printf("node %2d: true CW=%4d estimated=%7.1f margin=%.2f%s\n", i, cw[i], v.CW, v.Margin, flag)
	}
	return nil
}

func cmdPackets(args []string) error {
	fs := flag.NewFlagSet("packets", flag.ContinueOnError)
	n := fs.Int("n", 10, "number of nodes")
	w := fs.Int("w", 0, "contention window (default: the paper NE for n)")
	mode := fs.String("mode", "basic", "access mode: basic or rtscts")
	ber := fs.Float64("ber", 1e-4, "per-bit error rate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	cwVal := *w
	if cwVal == 0 {
		game, err := selfishmac.NewGame(selfishmac.DefaultConfig(*n, m))
		if err != nil {
			return err
		}
		ne, err := game.FindPaperNE()
		if err != nil {
			return err
		}
		cwVal = ne.WStar
	}
	cfg := selfishmac.DefaultRateControlConfig(*n, cwVal, m)
	cfg.BER = *ber
	game, err := selfishmac.NewRateControlGame(cfg)
	if err != nil {
		return err
	}
	out, err := game.Analyze()
	if err != nil {
		return err
	}
	fmt.Printf("packet-size game: n=%d W=%d mode=%s BER=%g\n", *n, cwVal, m, *ber)
	fmt.Printf("social optimum:  L = %6.0f bits, per-node utility %.4g/us\n", out.LSocial, out.USocial)
	fmt.Printf("one-shot NE:     L = %6.0f bits, per-node utility %.4g/us\n", out.LNE, out.UNE)
	fmt.Printf("escalation %.2fx, price of anarchy %.3f\n", out.Escalation, out.PriceOfAnarchy)
	fmt.Println("with long-sighted TFT players the repeated game sustains the social optimum,")
	fmt.Println("mirroring the paper's CW-game result in a second strategy space.")
	return nil
}
