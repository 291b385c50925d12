package ratecontrol

// simcheck_test.go cross-validates the rate-control game's analytic slot
// accounting against the event-driven MAC simulator: replay a payload
// profile with per-node channel holds and compare the deviator's measured
// payoff rate with DeviatorUtility.

import (
	"testing"

	"selfishmac/internal/backoff"
	"selfishmac/internal/macsim"
	"selfishmac/internal/phy"
	"selfishmac/internal/stats"
)

func TestDeviatorUtilityMatchesSimulation(t *testing.T) {
	const (
		n     = 10
		w     = 336
		lDev  = 12000.0
		lBase = 4000.0
	)
	cfg := DefaultConfig(n, w, phy.Basic)
	cfg.BER = 0 // the simulator does not model bit errors
	g, err := NewGame(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Build the per-node hold overrides for the (lDev; lBase...) profile.
	cw := make([]int, n)
	ts := make([]float64, n)
	tc := make([]float64, n)
	for i := range cw {
		cw[i] = w
		L := lBase
		if i == 0 {
			L = lDev
		}
		ts[i], tc[i] = g.HoldTimes(L)
	}
	res, err := macsim.Run(macsim.Config{
		Run: backoff.Run{
			Timing:   cfg.PHY.MustTiming(phy.Basic),
			MaxStage: cfg.PHY.MaxBackoffStage,
			CW:       cw,
			Duration: 300e6,
			Seed:     7,
			Gain:     cfg.GainPerBit * lDev, // per-packet gain of the deviator
			Cost:     cfg.CostPerAttempt,
		},
		PerNodeTs: ts,
		PerNodeTc: tc,
	})
	if err != nil {
		t.Fatal(err)
	}
	simPayoff := res.Nodes[0].PayoffRate
	analytic := g.DeviatorUtility(lDev, lBase)
	if rel := stats.RelErr(simPayoff, analytic); rel > 0.05 {
		t.Fatalf("deviator payoff: sim %g vs analytic %g (rel %.3f)", simPayoff, analytic, rel)
	}
}

func TestUniformUtilityMatchesSimulation(t *testing.T) {
	const (
		n = 10
		w = 336
		L = 8184.0
	)
	cfg := DefaultConfig(n, w, phy.Basic)
	cfg.BER = 0
	g, err := NewGame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsL, tcL := g.HoldTimes(L)
	cw := make([]int, n)
	ts := make([]float64, n)
	tc := make([]float64, n)
	for i := range cw {
		cw[i], ts[i], tc[i] = w, tsL, tcL
	}
	res, err := macsim.Run(macsim.Config{
		Run: backoff.Run{
			Timing:   cfg.PHY.MustTiming(phy.Basic),
			MaxStage: cfg.PHY.MaxBackoffStage,
			CW:       cw,
			Duration: 300e6,
			Seed:     9,
			Gain:     cfg.GainPerBit * L,
			Cost:     cfg.CostPerAttempt,
		},
		PerNodeTs: ts,
		PerNodeTc: tc,
	})
	if err != nil {
		t.Fatal(err)
	}
	var simMean float64
	for _, nd := range res.Nodes {
		simMean += nd.PayoffRate
	}
	simMean /= n
	analytic := g.UniformUtility(L)
	if rel := stats.RelErr(simMean, analytic); rel > 0.03 {
		t.Fatalf("uniform payoff: sim %g vs analytic %g (rel %.3f)", simMean, analytic, rel)
	}
}
