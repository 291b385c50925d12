package replicate

import (
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
)

// FuzzPlan drives the schedule and the batch size through Run. A plan is
// rejected with ErrInvalidPlan, before any replication runs, exactly when
// MaxReps < 1, MinReps or BatchSize is negative, or RelTolerance is NaN,
// negative or +Inf; Schedule.Validate makes the same decision for the
// schedule's part.
// Otherwise the run ends with 1 <= Reps <= MaxReps after at least one
// round, and its Result equals the same plan's at Workers 1. MaxReps is
// clamped to 64 and Workers to 8, so no input starts more than a handful
// of goroutines.
func FuzzPlan(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(3, 8, 0, 0.02, 0)
	f.Add(2, 40, 3, 0.05, 2)
	f.Add(0, 1, 0, 0.1, 1)
	f.Add(5, 5, 1, 0.0, -3)
	f.Add(70, 64, 100, 1e-9, 8)
	f.Add(-1, 8, 0, 0.02, 2)
	f.Add(2, 0, 0, 0.02, 2)
	f.Add(2, 8, -1, 0.02, 2)
	f.Add(2, 8, 0, -0.1, 2)
	f.Add(2, 8, 0, nan, 2)
	f.Add(2, 8, 0, inf, 2)
	f.Add(2, 8, 0, -inf, 2)
	f.Add(math.MinInt, math.MaxInt, math.MaxInt, math.MaxFloat64, math.MinInt)
	f.Fuzz(func(t *testing.T, minReps, maxReps, batch int, relTol float64, workers int) {
		p := Plan{
			BaseSeed:  11,
			Stream:    "t.fuzz",
			Metrics:   2,
			Target:    1,
			Schedule:  Schedule{MinReps: minReps, MaxReps: min(maxReps, 64), RelTolerance: relTol, Workers: min(workers, 8)},
			BatchSize: batch,
		}
		badSchedule := p.MaxReps < 1 || p.MinReps < 0 || !(relTol >= 0) || math.IsInf(relTol, 1)
		if err := p.Schedule.Validate(); (err != nil) != badSchedule || (err != nil && !errors.Is(err, ErrInvalidPlan)) {
			t.Fatalf("%+v: Schedule.Validate = %v, want rejection %v wrapping ErrInvalidPlan", p.Schedule, err, badSchedule)
		}
		wantReject := badSchedule || p.BatchSize < 0
		var calls atomic.Int64
		rep := twoMetricFunc(3)
		counted := func(seed uint64, out []float64) error {
			calls.Add(1)
			return rep(seed, out)
		}
		res, err := runFunc(p, counted)
		if wantReject {
			if !errors.Is(err, ErrInvalidPlan) {
				t.Fatalf("%+v: got %v, want an error wrapping ErrInvalidPlan", p.Schedule, err)
			}
			if calls.Load() != 0 {
				t.Fatalf("%+v: %d replications ran on a rejected plan", p.Schedule, calls.Load())
			}
			return
		}
		if err != nil {
			t.Fatalf("%+v, batch %d: valid plan failed: %v", p.Schedule, batch, err)
		}
		if res.Reps < 1 || res.Reps > p.MaxReps || res.Rounds < 1 || int64(res.Reps) != calls.Load() {
			t.Fatalf("%+v, batch %d: reps %d (%d calls), rounds %d", p.Schedule, batch, res.Reps, calls.Load(), res.Rounds)
		}
		p.Workers = 1
		serial, err := runFunc(p, rep)
		if err != nil {
			t.Fatalf("%+v: serial run failed: %v", p.Schedule, err)
		}
		if !reflect.DeepEqual(res, serial) {
			t.Fatalf("%+v, batch %d: result %+v differs from the serial %+v", p.Schedule, batch, res, serial)
		}
	})
}
