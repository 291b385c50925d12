// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload against the program's public packages, times the calls from
// outside, checks the outputs, and prints every metric as `name value
// unit`, then one JSON summary as its last line.
//
// Usage (run from the repository root; run.sh builds and runs it):
//
//	benchmark -workload <name|all> [-seed n] [-seconds n] [-trace 0|1|spans.json] [-json runs.jsonl]
//	benchmark -compare parent.jsonl change.jsonl
//
// The workloads and metrics are listed in BENCHMARK.json; README.md in
// this directory says why each exists and how to read the numbers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"selfishmac/internal/experiments"
	"selfishmac/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one set of inputs the benchmark runs. A nil tracer runs it
// untraced.
type workload interface {
	run(tr *tracer) (*result, error)
}

// newWorkload builds a workload from its name and seed. seconds sets the
// run length through a fixed op count per second, calibrated on the
// recorded host, so every commit does the same work for the same flags.
func newWorkload(name string, seed uint64, seconds int) (workload, error) {
	s := float64(seconds)
	switch name {
	case "registry-paper":
		// Settings are the paper's own, seed included, so every pass
		// does the same work whatever the benchmark seed.
		return registryWorkload{
			settings: experiments.DefaultSettings(),
			runners:  experiments.All(),
			passes:   max(1, int(math.Round(s/1.25))),
			setups:   3,
		}, nil
	case "mobile-n10000":
		topo := topology.Config{N: 10000, Width: 10000, Height: 10000, Range: 250, MaxSpeed: 5}
		return newSpatial(seed, topo, 0, 0.5e6, max(1, int(s*22))), nil
	case "paused-n1000":
		topo := topology.Config{N: 1000, Width: 3162, Height: 3162, Range: 250, MinSpeed: 5, MaxSpeed: 20, Pause: 600}
		return newSpatial(seed, topo, 4000, 2e6, max(1, int(s*94))), nil
	case "daemon-mixed":
		return newDaemon(seed, []ratePhase{
			{"low", 80, time.Duration(0.55 * s * float64(time.Second))},
			{"high", 160, time.Duration(0.45 * s * float64(time.Second))},
		}), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload from BENCHMARK.json, or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 0, "nominal length of the timed phase (0: run_seconds from BENCHMARK.json)")
	trace := fs.String("trace", "0", "0: untraced run reporting end-to-end metrics; 1 or a file name: traced run reporting per-layer metrics, spans written to that file")
	jsonOut := fs.String("json", "", "append the run's full result, with run metadata, as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -json files named as arguments: parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files: parent.jsonl change.jsonl")
			return 2
		}
		worse, err := compareFiles(bf, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}
	if *name == "all" {
		return runAll(bf, args, stdout, stderr)
	}
	traced, spansPath := *trace != "0", *trace
	if *trace == "1" {
		spansPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
	}
	rec, err := runOne(*name, *seed, *seconds, traced, spansPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	if err := report(bf, rec, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return 0
}

// record is one run as the -json file stores it.
type record struct {
	Meta      meta              `json:"meta"`
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"digest"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta identifies where and how a run was made, so numbers from
// different hosts or builds are never compared silently.
type meta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Started    string `json:"started"`
}

func runMeta(seed uint64, seconds int) meta {
	m := meta{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Revision:   "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Revision = s.Value
			}
		}
	}
	return m
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runOne runs a workload untraced, or, when traced, once untraced and
// once traced: the untraced run is the base the traced run's overhead is
// measured against.
func runOne(name string, seed uint64, seconds int, traced bool, spansPath string) (*record, error) {
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	return runWorkload(w, &record{Meta: runMeta(seed, seconds), Workload: name, Traced: traced}, spansPath)
}

// runWorkload runs w and fills rec with what it measured.
func runWorkload(w workload, rec *record, spansPath string) (*record, error) {
	traced := rec.Traced
	res, err := w.run(nil)
	if err != nil {
		return nil, err
	}
	if traced {
		base := res
		tr := newTracer()
		if res, err = w.run(tr); err != nil {
			return nil, err
		}
		res.set("trace.overhead_ratio", res.metrics["op_ms_p50"].Value/base.metrics["op_ms_p50"].Value, "ratio")
		res.attempted += base.attempted
		res.failed += base.failed
		res.problems = append(base.problems, res.problems...)
		if base.digest != res.digest {
			res.fail("traced run's output digest %s differs from the untraced run's %s", res.digest, base.digest)
		}
		if err := tr.write(spansPath, rec.Meta); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	rec.Attempted, rec.Failed, rec.Correct = res.attempted, res.failed, res.failed == 0
	rec.Digest, rec.Problems, rec.Metrics = res.digest, res.problems, res.metrics
	return rec, nil
}

// report prints the run: its metadata, any failures, every metric, and
// last the JSON summary with the metrics BENCHMARK.json lists for this
// kind of run.
func report(bf *benchFile, rec *record, out io.Writer) error {
	m := rec.Meta
	fmt.Fprintf(out, "# workload %s seed %d seconds %d traced %t\n", rec.Workload, m.Seed, m.Seconds, rec.Traced)
	fmt.Fprintf(out, "# host %q nproc %d gomaxprocs %d %s revision %s\n", m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Revision)
	for _, p := range rec.Problems {
		fmt.Fprintln(out, "FAIL", p)
	}
	fmt.Fprintf(out, "digest %s\n", rec.Digest)
	for _, name := range sortedNames(rec.Metrics) {
		v := rec.Metrics[name]
		fmt.Fprintf(out, "%s %v %s\n", name, v.Value, v.Unit)
	}

	list := bf.EndToEnd
	if rec.Traced {
		list = bf.PerLayer
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]metric, len(list))}
	for _, bm := range list {
		v, ok := rec.Metrics[bm.Name]
		switch {
		case !ok && !rec.Traced:
			return fmt.Errorf("workload %s does not report end-to-end metric %s", rec.Workload, bm.Name)
		case !ok:
			// A layer this workload does not exercise did no work.
			v = metric{0, bm.Unit}
		case v.Unit != bm.Unit:
			return fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", bm.Name, v.Unit, bm.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is %v", bm.Name, v.Value)
		}
		summary.Metrics[bm.Name] = v
	}
	buf, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", buf)
	return err
}

func appendRecord(path string, rec *record) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own process, so each one's peak RSS
// is its own.
func runAll(bf *benchFile, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range bf.Workloads {
		cmd := exec.Command(self, append(args, "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}
