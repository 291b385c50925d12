// differential_test.go pins the replication layer against hand-written
// serial loops over the real simulators: a fixed-R plan must produce
// byte-identical moments to running R replications one by one with
// per-index derived seeds and folding them into a plain Welford
// accumulator, at workers 1 and 4. Because the replicators are the
// reusable engines (macsim.Engine, multihop.Simulator), this doubles as
// an end-to-end check that the engine lifecycle equals the one-shot
// entry points under replicate's scheduling.
//
// The test lives in an external test package: internal/multihop imports
// replicate, so an in-package test importing multihop would be a cycle.
package replicate_test

import (
	"context"
	"testing"

	"selfishmac/internal/backoff"
	"selfishmac/internal/macsim"
	"selfishmac/internal/multihop"
	"selfishmac/internal/phy"
	"selfishmac/internal/replicate"
	"selfishmac/internal/rng"
	"selfishmac/internal/stats"
	"selfishmac/internal/topology"
)

const diffReps = 6

// serialMoments is the comparator: R serial replications folded with
// plain Welford.Add in index order — exactly what a fixed-R plan's single
// round computes before merging its (only) block.
func serialMoments(t *testing.T, baseSeed uint64, stream string, metrics int,
	run func(seed uint64, out []float64) error) []stats.Welford {
	t.Helper()
	moments := make([]stats.Welford, metrics)
	out := make([]float64, metrics)
	for rep := 0; rep < diffReps; rep++ {
		if err := run(rng.DeriveSeed(baseSeed, stream, rep), out); err != nil {
			t.Fatal(err)
		}
		for m := range moments {
			moments[m].Add(out[m])
		}
	}
	return moments
}

func requireIdentical(t *testing.T, workers int, got *replicate.Result, want []stats.Welford) {
	t.Helper()
	if got.Reps != diffReps {
		t.Fatalf("workers %d: ran %d reps, want %d", workers, got.Reps, diffReps)
	}
	for m := range want {
		if got.Moments[m] != want[m] {
			t.Fatalf("workers %d metric %d: replicate diverged from the serial loop:\nreplicate: %+v\nserial:    %+v",
				workers, m, got.Summary(m), want[m].Snapshot())
		}
	}
}

// TestDifferentialReplicateMacsim: fixed-R over reusable macsim engines
// vs a serial loop of one-shot macsim.Run calls.
func TestDifferentialReplicateMacsim(t *testing.T) {
	p := phy.Default()
	cfg := macsim.Config{
		Run: backoff.Run{
			Timing:   p.MustTiming(phy.Basic),
			MaxStage: p.MaxBackoffStage,
			CW:       []int{336, 128, 336, 64, 336, 336, 200, 336, 16, 336},
			Duration: 1e6,
			Gain:     1,
			Cost:     0.01,
		},
	}
	metrics := len(cfg.CW)
	const stream = "diff.macsim"
	want := serialMoments(t, 42, stream, metrics, func(seed uint64, out []float64) error {
		ref := cfg
		ref.Seed = seed
		res, err := macsim.Run(ref)
		if err != nil {
			return err
		}
		for i := range out {
			out[i] = res.Nodes[i].PayoffRate
		}
		return nil
	})
	for _, workers := range []int{1, 4} {
		got, err := replicate.Run(context.Background(),
			replicate.Plan{BaseSeed: 42, Stream: stream, Metrics: metrics, Schedule: replicate.Schedule{MaxReps: diffReps, Workers: workers}},
			func() (replicate.Replicator, error) {
				eng, err := macsim.NewEngine(cfg)
				if err != nil {
					return nil, err
				}
				return func(seed uint64, out []float64) error {
					eng.Reset(seed)
					res := eng.Run()
					for i := range out {
						out[i] = res.Nodes[i].PayoffRate
					}
					return nil
				}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, workers, got, want)
	}
}

// TestDifferentialReplicateMultihop: fixed-R over reusable spatial
// simulators vs a serial loop of one-shot multihop.Simulate calls.
func TestDifferentialReplicateMultihop(t *testing.T) {
	nw, err := topology.New(topology.Config{
		N: 30, Width: 800, Height: 800, Range: 220, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := multihop.SimConfig{
		Run: backoff.Run{
			Timing:   phy.Default().MustTiming(phy.RTSCTS),
			MaxStage: phy.Default().MaxBackoffStage,
			CW:       make([]int, 30),
			Duration: 5e5,
			Gain:     1,
			Cost:     0.01,
		},
	}
	for i := range cfg.CW {
		cfg.CW[i] = 26 + 4*(i%5)
	}
	metrics := nw.N() + 1 // per-node payoff rates plus the global rate
	const stream = "diff.multihop"
	want := serialMoments(t, 7, stream, metrics, func(seed uint64, out []float64) error {
		ref := cfg
		ref.Seed = seed
		res, err := multihop.Simulate(nw, ref)
		if err != nil {
			return err
		}
		for i := range res.Nodes {
			out[i] = res.Nodes[i].PayoffRate
		}
		out[len(res.Nodes)] = res.GlobalPayoffRate()
		return nil
	})
	for _, workers := range []int{1, 4} {
		got, err := replicate.Run(context.Background(),
			replicate.Plan{BaseSeed: 7, Stream: stream, Metrics: metrics, Schedule: replicate.Schedule{MaxReps: diffReps, Workers: workers}},
			func() (replicate.Replicator, error) {
				sim, err := multihop.NewSimulator(nw, cfg)
				if err != nil {
					return nil, err
				}
				return func(seed uint64, out []float64) error {
					sim.Reset(seed)
					res, err := sim.Run()
					if err != nil {
						return err
					}
					for i := range res.Nodes {
						out[i] = res.Nodes[i].PayoffRate
					}
					out[len(res.Nodes)] = res.GlobalPayoffRate()
					return nil
				}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, workers, got, want)
	}
}
