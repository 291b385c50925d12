package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"selfishmac/internal/experiments"
	"selfishmac/internal/topology"
)

// tinyWorkloads are the four workloads at sizes that run in about a
// second each, built directly rather than through a flag so a production
// run can never pick them.
func tinyWorkloads(t *testing.T) map[string]workload {
	var runners []experiments.Runner
	for _, id := range []string{"T1", "T2", "A4"} {
		r, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		runners = append(runners, r)
	}
	mobile := newSpatial(1, topology.Config{N: 60, Width: 800, Height: 800, Range: 250, MaxSpeed: 5}, 0, 0.5e6, 4)
	paused := newSpatial(1, topology.Config{N: 60, Width: 800, Height: 800, Range: 250, MinSpeed: 5, MaxSpeed: 20, Pause: 30}, 100, 1e6, 4)
	daemon := newDaemon(1, []ratePhase{{"low", 50, 300 * time.Millisecond}, {"high", 100, 300 * time.Millisecond}})
	mobile.setups, paused.setups, daemon.setups = 1, 1, 1
	return map[string]workload{
		"registry-paper": registryWorkload{settings: experiments.QuickSettings(), runners: runners, passes: 2, setups: 1},
		"mobile-n10000":  mobile,
		"paused-n1000":   paused,
		"daemon-mixed":   daemon,
	}
}

func readTestBenchFile(t *testing.T) *benchFile {
	t.Helper()
	bf, err := readBenchFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json at a tiny
// size, traced, and checks that each run is correct and that the metric
// names and units it emits agree with BENCHMARK.json.
func TestWorkloadsSmoke(t *testing.T) {
	bf := readTestBenchFile(t)
	tiny := tinyWorkloads(t)
	emitted := make(map[string]string) // per-layer metric → workload emitting it
	for _, bw := range bf.Workloads {
		w, ok := tiny[bw.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %s has no tiny version", bw.Name)
		}
		if _, err := newWorkload(bw.Name, 1, 1); err != nil {
			t.Fatalf("BENCHMARK.json workload %s: %v", bw.Name, err)
		}
		spans := filepath.Join(t.TempDir(), "spans.json")
		rec, err := runWorkload(w, &record{Workload: bw.Name, Traced: true}, spans)
		if err != nil {
			t.Fatalf("%s: %v", bw.Name, err)
		}
		if !rec.Correct || rec.Attempted == 0 {
			t.Fatalf("%s: correct %t, %d attempted, problems %v", bw.Name, rec.Correct, rec.Attempted, rec.Problems)
		}
		if rec.Digest == "" {
			t.Errorf("%s: no output digest", bw.Name)
		}
		checkSpans(t, bw.Name, spans)

		for _, traced := range []bool{false, true} {
			rec.Traced = traced
			var out bytes.Buffer
			if err := report(bf, rec, &out); err != nil {
				t.Fatalf("%s (traced %t): %v", bw.Name, traced, err)
			}
			checkSummary(t, bf, bw.Name, traced, out.String())
		}
		for _, m := range bf.PerLayer {
			if v, ok := rec.Metrics[m.Name]; ok {
				emitted[m.Name] = bw.Name
				if v.Unit != m.Unit {
					t.Errorf("%s: %s in %s, BENCHMARK.json says %s", bw.Name, m.Name, v.Unit, m.Unit)
				}
			} else if timeUnits[m.Unit] {
				// report() fills a missing per-layer metric with 0; a time
				// that reads 0 on every run would look unmeasured.
				t.Errorf("%s does not emit %s, a time every workload must measure", bw.Name, m.Name)
			}
		}
	}
	for _, m := range bf.PerLayer {
		if emitted[m.Name] == "" {
			t.Errorf("per-layer metric %s is emitted by no workload", m.Name)
		}
	}
}

var timeUnits = map[string]bool{"ns": true, "us": true, "ms": true, "s": true}

// checkSummary checks the last line of a run's output: exactly the
// summary keys, and exactly the metrics BENCHMARK.json lists for it.
func checkSummary(t *testing.T, bf *benchFile, name string, traced bool, out string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", name, err)
	}
	if len(sum) != 4 || sum["correct"] == nil || sum["attempted"] == nil || sum["failed"] == nil || sum["metrics"] == nil {
		t.Fatalf("%s: summary keys %v", name, sum)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(sum["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	list := bf.EndToEnd
	if traced {
		list = bf.PerLayer
	}
	if len(metrics) != len(list) {
		t.Errorf("%s (traced %t): %d metrics in the summary, BENCHMARK.json lists %d", name, traced, len(metrics), len(list))
	}
	for _, m := range list {
		v, ok := metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("%s (traced %t): summary has %s = %+v, want unit %s", name, traced, m.Name, v, m.Unit)
		}
		if !traced && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", name, m.Name, v.Value)
		}
	}
}

// checkSpans checks the written spans form traces: every parent exists
// and shares its children's trace.
func checkSpans(t *testing.T, name, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var file struct {
		Meta  meta
		Spans []Span
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatalf("%s: spans: %v", name, err)
	}
	spans := file.Spans
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", name)
	}
	byID := make(map[uint64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %s ends before it starts", name, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if p, ok := byID[s.Parent]; !ok || p.Trace != s.Trace {
			t.Errorf("%s: span %s has parent %d outside its trace %d", name, s.Name, s.Parent, s.Trace)
		}
	}
}

func TestBenchFileShape(t *testing.T) {
	bf := readTestBenchFile(t)
	hasSetup := false
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = true
			for _, o := range bf.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %g is not the largest (%s has %g)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
}
