package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		// Overlapping children count once; the part of a child outside
		// its parent does not count.
		{ID: 2, Parent: 1, Name: "queue", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "run", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "fetch", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
		{ID: 6, Name: "job", Start: 200, End: 300},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 100}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}

	shares := selfShares(spans, "job")
	for name, w := range map[string]float64{"job": 150.0 / 200, "run": 20.0 / 200, "fetch": 30.0 / 200} {
		if math.Abs(shares[name]-w) > 1e-12 {
			t.Errorf("share of %s = %g, want %g", name, shares[name], w)
		}
	}
}
