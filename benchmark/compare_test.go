package main

import "testing"

func TestJudgeVerdicts(t *testing.T) {
	lat := benchMetric{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	cases := []struct {
		name           string
		m              benchMetric
		parent, change []float64
		want           string
	}{
		{"faster in every pair", lat, steady, shift(steady, -5), improved},
		{"faster but too few pairs", lat, steady[:5], shift(steady[:5], -5), unchanged},
		{"slower beyond the bound", lat, steady, shift(steady, 15), worse},
		{"slower within the bound", lat, steady, shift(steady, 5), unchanged},
		{"spread wider than the bound", lat, []float64{70, 130, 75, 125, 80, 120, 85, 115, 90, 110},
			[]float64{71, 129, 76, 124, 81, 119, 86, 114, 91, 109}, unresolved},
		{"higher is better", benchMetric{Name: "x", Better: "higher", Bound: 0.1}, steady, shift(steady, 5), improved},
		{"absolute floor absorbs a small set-up change", benchMetric{Name: "setup_s", Better: "lower", Bound: 0.25},
			[]float64{0.02, 0.02, 0.02}, []float64{0.06, 0.06, 0.06}, unchanged},
	}
	for _, c := range cases {
		if got := judge(c.m, c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
