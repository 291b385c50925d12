// Command experiments regenerates every table and figure of the paper's
// evaluation and writes the artifacts under an output directory.
//
// Usage:
//
//	experiments [-quick] [-out results] [-only T2,F3] [-seed 1] [-jobs 4]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With no flags it runs the full paper-faithful profile (1000-second
// single-hop simulations, the 100-node mobile scenario); -quick switches
// to a fast smoke profile. Each experiment writes <id>.txt with its
// rendered tables/charts and metric summary, plus any CSV artifacts.
// An -only list naming an unknown ID is an error that lists the known
// IDs; nothing runs.
//
// -jobs bounds the concurrency at both levels: how many experiment
// runners execute at once and how many workers each runner fans its
// sweep points over (0 means GOMAXPROCS). Every random draw comes from a
// seed derived per (experiment, stream, index), so the reports and
// artifacts are byte-identical at every -jobs value; only the wall-clock
// changes. Reports are printed and written in registry order regardless
// of completion order.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"selfishmac/internal/experiments"
	"selfishmac/internal/parallel"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// First SIGINT/SIGTERM cancels the run: in-flight experiments return
	// at their next sweep point or replication round boundary and the
	// completed reports are still printed and written. A second signal
	// hard-exits.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "experiments: interrupt — finishing cleanly (interrupt again to force exit)")
		cancel()
		<-sigs
		fmt.Fprintln(os.Stderr, "experiments: second interrupt — exiting now")
		os.Exit(130)
	}()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type runnerResult struct {
	rep     *experiments.Report
	err     error
	elapsed time.Duration
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use the fast smoke profile instead of the paper-faithful one")
	out := fs.String("out", "results", "output directory")
	only := fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
	seed := fs.Uint64("seed", 1, "master random seed")
	jobs := fs.Int("jobs", 0, "max concurrent experiment runners and per-runner sweep workers (0 = GOMAXPROCS)")
	list := fs.Bool("list", false, "list experiments and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file when the run completes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	all := experiments.All()
	if *list {
		for _, r := range all {
			fmt.Printf("%-3s %s\n", r.ID, r.Name)
		}
		return nil
	}

	settings := experiments.DefaultSettings()
	if *quick {
		settings = experiments.QuickSettings()
	}
	settings.Seed = *seed
	settings.Workers = *jobs

	want := map[string]bool{}
	if *only != "" {
		var unknown []string
		for _, id := range strings.Split(*only, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := experiments.ByID(id); !ok {
				unknown = append(unknown, id)
			}
			want[id] = true
		}
		if len(unknown) > 0 {
			known := make([]string, len(all))
			for i, r := range all {
				known[i] = r.ID
			}
			return fmt.Errorf("-only: unknown experiment ID(s) %q (known: %s)",
				unknown, strings.Join(known, ","))
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	selected := all[:0:0]
	for _, r := range all {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		selected = append(selected, r)
	}

	// Run the selected experiments over the shared pool; each result
	// lands in its registry slot so reporting below is order-deterministic
	// no matter which runner finishes first. A runner the pool never
	// started (cancelled first) keeps an empty slot; the pool's own error
	// is only that cancellation, which the accounting below reports.
	results := make([]runnerResult, len(selected))
	_ = parallel.ForEach(ctx, len(selected), *jobs, func(_, i int) error {
		start := time.Now()
		rep, err := selected[i].Run(ctx, settings)
		results[i] = runnerResult{rep: rep, err: err, elapsed: time.Since(start)}
		return nil
	})

	var failures, cancelled int
	for i, r := range selected {
		res := results[i]
		if res.rep == nil && res.err == nil {
			cancelled++ // never started: the intake loop stopped first
			continue
		}
		fmt.Printf("=== %s: %s\n", r.ID, r.Name)
		if errors.Is(res.err, context.Canceled) {
			cancelled++
			fmt.Printf("(%s cancelled after %v)\n\n", r.ID, res.elapsed.Round(time.Millisecond))
			continue
		}
		if res.err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", r.ID, res.err)
			continue
		}
		rep := res.rep
		fmt.Print(rep.Text)
		if len(rep.Metrics) > 0 {
			fmt.Println(rep.MetricsSummary())
		}
		fmt.Printf("(%s in %v)\n\n", r.ID, res.elapsed.Round(time.Millisecond))

		body := rep.Text + "\n" + rep.MetricsSummary()
		if err := os.WriteFile(filepath.Join(*out, strings.ToLower(r.ID)+".txt"), []byte(body), 0o644); err != nil {
			return err
		}
		for _, a := range rep.Artifacts {
			if err := os.WriteFile(filepath.Join(*out, a.Name), []byte(a.Content), 0o644); err != nil {
				return err
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	if cancelled > 0 {
		return fmt.Errorf("interrupted: %d experiment(s) cancelled, %d completed", cancelled, len(selected)-cancelled)
	}
	return nil
}
