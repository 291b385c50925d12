package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// absFloor is the smallest change in a metric that can count as a
// regression, for metrics whose relative bound would otherwise fall
// inside the clock's or the allocator's granularity.
var absFloor = map[string]float64{"setup_s": 0.05, "peak_rss_mb": 2}

// Verdicts, judged as in the choosing-metrics method: a gain needs at
// least 10 pairs, 9 in 10 of them won, and medians further apart than
// the parent's quartile spread; a regression is a median worse by more
// than the metric's bound.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// judgement compares one metric on one workload across paired runs.
type judgement struct {
	parent, change summary
	wins, pairs    int
	bound, spread  float64 // absolute, in the metric's unit
	verdict        string
}

type summary struct{ q1, median, q3 float64 }

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{q1, median(xs), q3}
}

// judge compares parent and change runs of one metric; run i of each
// side forms pair i.
func judge(m benchMetric, parent, change []float64) judgement {
	lower := m.Better == "lower"
	better := func(a, b float64) bool { // a reads better than b
		if lower {
			return a < b
		}
		return a > b
	}
	j := judgement{parent: summarize(parent), change: summarize(change), pairs: min(len(parent), len(change))}
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	j.spread = j.parent.q3 - j.parent.q1
	j.bound = max(m.Bound*j.parent.median, absFloor[m.Name])
	worseBy := j.change.median - j.parent.median
	if !lower {
		worseBy = -worseBy
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case j.pairs >= 10 && 10*j.wins >= 9*j.pairs && -worseBy > j.spread:
		j.verdict = improved
	case worseBy > j.bound:
		j.verdict = worse
	case j.spread > j.bound && !allBetter:
		j.verdict = unresolved
	default:
		j.verdict = unchanged
	}
	return j
}

// readRecords loads the untraced runs of a -json file, by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// host is the part of a run's metadata that must match for two runs'
// numbers to be comparable.
func host(m meta) string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s", m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion)
}

// compareFiles prints, for every workload and end-to-end metric, each
// side's median and quartiles, the share of pairs the change won, and a
// verdict against the metric's bound. It reports whether any verdict is
// worse.
func compareFiles(bf *benchFile, parentPath, changePath string, out io.Writer) (bool, error) {
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	hosts := make(map[string]bool)
	for _, side := range []map[string][]record{parent, change} {
		for _, runs := range side {
			for _, r := range runs {
				hosts[host(r.Meta)] = true
			}
		}
	}
	if len(hosts) > 1 {
		names := make([]string, 0, len(hosts))
		for h := range hosts {
			names = append(names, h)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "WARNING: runs come from %d different hosts or builds: %s\n", len(hosts), strings.Join(names, " | "))
	}

	anyWorse := false
	fmt.Fprintf(out, "%-14s %-16s %-34s %-34s %-7s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, w := range bf.Workloads {
		p, c := parent[w.Name], change[w.Name]
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(out, "%-14s no runs on one side (parent %d, change %d)\n", w.Name, len(p), len(c))
			continue
		}
		for _, m := range bf.EndToEnd {
			j := judge(m, values(p, m.Name), values(c, m.Name))
			anyWorse = anyWorse || j.verdict == worse
			fmt.Fprintf(out, "%-14s %-16s %-34s %-34s %-7s %s (bound %.4g %s)\n", w.Name, m.Name,
				j.parent.String(), j.change.String(), fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict, j.bound, m.Unit)
		}
		// Any increase in the share of failed ops is a regression.
		pe, ce := errorRatio(p), errorRatio(c)
		verdict := unchanged
		if ce > pe {
			verdict, anyWorse = worse, true
		}
		fmt.Fprintf(out, "%-14s %-16s %-34.4g %-34.4g %-7s %s\n", w.Name, "error_ratio", pe, ce, "", verdict)
	}
	return anyWorse, nil
}

func (s summary) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3)
}

func values(runs []record, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func errorRatio(runs []record) float64 {
	var attempted, failed int
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}
