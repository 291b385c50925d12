// Package layerbench holds the layer benchmarks: one package's hot
// operation timed alone. cmd/bench drives each through
// testing.Benchmark as a layer row of BENCH_sim.json, and the package's
// own tests run it under `go test -bench`. It imports testing, so only
// cmd/bench and test files may import it; a production package that
// exported a benchmark would link testing into every binary built on it.
// It also holds MinScan, the eager event calendar that the ring's
// lockstep tests and the calendar rows' "scan" engine both run.
package layerbench

import (
	"testing"

	"selfishmac/internal/backoff"
	"selfishmac/internal/rng"
)

// Draw times one backoff draw at the paper's converged window (W = 26,
// m = 6), cycling through every stage so the draw sees each window size
// a run does. It is the backoff/draw row.
func Draw(b *testing.B) {
	var src rng.Source
	src.Reseed(1)
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += backoff.Draw(&src, 26, i&7, 6)
	}
	if sum < 0 {
		b.Fatal("negative backoff draw")
	}
}

// MinScan is the eager O(n) event calendar: the minimum slot and every
// node at it, ascending, appended to out. A minimum at or past limit
// reports (limit, out unchanged), the contract of calendar.Ring.Next.
func MinScan(slots []int64, limit int64, out []int) (int64, []int) {
	t := slots[0]
	for _, s := range slots[1:] {
		t = min(t, s)
	}
	if t >= limit {
		return limit, out
	}
	for i, s := range slots {
		if s == t {
			out = append(out, i)
		}
	}
	return t, out
}
