package search_test

import (
	"math"
	"testing"

	"selfishmac/internal/core"
	"selfishmac/internal/faults"
	"selfishmac/internal/phy"
	"selfishmac/internal/search"
)

// The search's lossy broadcast medium is faults.FaultyEnv with only
// DropProb set; it must refuse a missing inner env and a drop probability
// outside [0, 1).
func TestLossyEnvValidation(t *testing.T) {
	g, err := core.NewGame(core.DefaultConfig(3, phy.Basic))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := search.NewAnalyticEnv(g, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faults.New(nil, faults.Config{Seed: 1, DropProb: 0.1}); err == nil {
		t.Error("nil inner env accepted")
	}
	for _, p := range []float64{1.0, -0.1, math.NaN()} {
		if _, err := faults.New(inner, faults.Config{Seed: 1, DropProb: p}); err == nil {
			t.Errorf("drop probability %g accepted", p)
		}
	}
	if _, err := faults.New(inner, faults.Config{Seed: 1, DropProb: 0.2}); err != nil {
		t.Errorf("drop probability 0.2 rejected: %v", err)
	}
}
