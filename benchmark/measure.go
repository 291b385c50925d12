package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one named number with its unit, as printed and as stored in
// the -json output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of a workload measured and checked.
type result struct {
	setup     []time.Duration // each set-up, timed separately
	ops       []time.Duration // wall time of each timed op
	attempted int
	failed    int
	problems  []string // one line per failed op or failed check
	digest    string   // hash of the program's outputs, equal across runs of one seed
	before    usage    // taken just before the first timed op
	after     usage    // taken just after the last timed op
	metrics   map[string]metric
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail counts one failed op and keeps its description.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// timeSetup runs setup n times and records each duration; the state of
// the last run is what the timed phase uses.
func (r *result) timeSetup(n int, setup func() error) error {
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(start))
	}
	return nil
}

// finish derives the metrics every workload reports from the recorded
// set-ups, op times and usage snapshots.
func (r *result) finish() {
	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = d.Seconds()
	}
	r.set("setup_s", median(setup), "s")
	ms := millis(r.ops)
	r.set("ops", float64(len(ms)), "count")
	r.set("op_ms_p50", median(ms), "ms")
	r.set("op_ms_p95", percentile(ms, 95), "ms")
	if p, ok := tailPercentile(len(ms)); ok && p != 95 {
		r.set(fmt.Sprintf("op_ms_p%g", p), percentile(ms, p), "ms")
	}
	n := float64(len(r.ops))
	d := r.after.sub(r.before)
	r.set("cpu_ms_per_op", float64(d.cpu)/float64(time.Millisecond)/n, "ms")
	r.set("runtime.allocs_per_op", float64(d.allocs)/n, "count")
	r.set("runtime.alloc_mb_per_op", float64(d.allocBytes)/(1<<20)/n, "MB")
	r.set("runtime.gc_cycles", float64(d.gcCycles), "count")
	r.set("runtime.gc_cpu_s", d.gcCPU, "s")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.set("error_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
}

// usage is a snapshot of the process's cumulative resource counters.
type usage struct {
	cpu        time.Duration // user + system CPU time
	allocs     uint64        // heap objects allocated, tiny ones included
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // estimated CPU seconds spent in the GC
}

var usageSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageSamples))
	for i, name := range usageSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     s[0].Value.Uint64() + s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
		gcCPU:      s[4].Value.Float64(),
	}
}

func (u usage) sub(v usage) usage {
	return usage{
		cpu:        u.cpu - v.cpu,
		allocs:     u.allocs - v.allocs,
		allocBytes: u.allocBytes - v.allocBytes,
		gcCycles:   u.gcCycles - v.gcCycles,
		gcCPU:      u.gcCPU - v.gcCPU,
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports kilobytes
}

// sortedNames lists a metric map's keys in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
