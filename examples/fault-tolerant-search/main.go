// Fault-tolerant NE search: the Section V.C protocol run over the search
// environment's deterministic fault injection. The scenario combines 30% per-node
// broadcast loss, 10% gross payoff outliers, 5% transient measurement
// failures, and a leader crash five measurements in — and the resilient
// runner (median-of-3 measurement, retry, Ready re-broadcast, deputy
// failover) still lands on the fault-free efficient NE. The whole run
// replays byte-identically from its seed.
//
// Run with:
//
//	go run ./examples/fault-tolerant-search
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
	fmt.Fprintf(w, "10-player RTS/CTS game; fault-free efficient NE Wc* = %d\n\n", exact.WStar)

	const (
		w0   = 8
		seed = 7
	)
	// The resilient runner takes the median of three measurements per
	// operating point, which rejects the payoff outliers, and retries a
	// failed measurement up to three times.
	opts := selfishmac.SearchOptions{WMax: game.Config().WMax}
	cfg := selfishmac.FaultConfig{
		Seed:             seed,
		DropProb:         0.3,  // each follower misses each broadcast w.p. 0.3
		DupProb:          0.05, // some broadcasts arrive twice
		OutlierProb:      0.1,  // gross measurement errors
		FailProb:         0.05, // transient measurement failures
		LeaderCrashAfter: 5,    // the leader's search agent dies mid-walk
	}

	search := func() (selfishmac.SearchResult, *selfishmac.AnalyticSearchEnv, error) {
		env, err := selfishmac.NewAnalyticSearchEnv(game, 0, w0, cfg)
		if err != nil {
			return selfishmac.SearchResult{}, nil, err
		}
		res, err := selfishmac.RunResilientSearch(env, 0, w0, opts)
		return res, env, err
	}

	res, env, err := search()
	if err != nil {
		return err
	}
	stats := env.Stats
	fmt.Fprintf(w, "resilient walk from W0=%d under faults:\n", w0)
	fmt.Fprintf(w, "  announced W=%d (fault-free Wc*=%d), degraded=%v\n", res.W, exact.WStar, res.Degraded)
	fmt.Fprintf(w, "  leader crashed and deputy %d finished the search (failover=%v)\n", res.Leader, res.FailedOver)
	fmt.Fprintf(w, "  %d operating points probed, %d raw measurements, %d retries, %d Ready re-broadcasts\n",
		res.ProbeCount(), res.Measurements, res.Retries, res.Rebroadcasts)
	fmt.Fprintf(w, "  injected: %d drops, %d outliers, %d transient failures, %d leader crash\n\n",
		stats.Dropped, stats.Outliers, stats.TransientFailures, stats.LeaderCrashes)

	// Deterministic replay: the same seed reproduces the run exactly —
	// a failure seen once can always be replayed from its seed.
	again, env, err := search()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replay from seed %d: W=%d, identical stats: %v\n", seed, again.W, stats == env.Stats)

	// A probe budget turns exhaustion into graceful degradation instead
	// of an error: best-so-far with the Degraded flag.
	env, err = selfishmac.NewAnalyticSearchEnv(game, 0, w0, selfishmac.FaultConfig{Seed: seed, DropProb: 0.2})
	if err != nil {
		return err
	}
	budgetOpts := opts
	budgetOpts.ProbeBudget = 12
	deg, err := selfishmac.RunResilientSearch(env, 0, w0, budgetOpts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwith a probe budget of 12: announced best-so-far W=%d, degraded=%v\n", deg.W, deg.Degraded)
	return nil
}
