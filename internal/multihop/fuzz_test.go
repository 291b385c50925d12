package multihop

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"selfishmac/internal/backoff"
	"selfishmac/internal/core"
	"selfishmac/internal/macsim"
	"selfishmac/internal/phy"
)

// FuzzRunConfig drives the shared DCF run parameters through every entry
// point of both simulators. All of them must make the same accept/reject
// decision (multihop's NewEngine, which ignores the profile, the decision
// for a valid profile), each rejection must wrap its package's sentinel,
// and an accepted run that is bounded — n ≤ 8 and at most 1e5 lengths of
// the shortest of Slot, Ts and Tc — must finish in both simulators, with
// macsim.Run equal to RunReference and Simulate to SimulateReference.
func FuzzRunConfig(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	basic := phy.Default().MustTiming(phy.Basic)
	f.Add(uint8(3), 32, 32, 6, 1e5, basic.Slot, basic.Ts, basic.Tc, uint64(1), 1.0, 0.01)
	f.Add(uint8(7), 1, 2, 0, 1e4, 1.0, 1.0, 1.0, uint64(2), 0.0, 0.0)
	f.Add(uint8(2), 4, 1<<20, 16, 1e6, 9.0, 0.5, 700.0, uint64(3), 2.0, 5.0)
	f.Add(uint8(4), 0, 32, 6, 1e5, 50.0, 900.0, 800.0, uint64(4), 1.0, 0.01)
	f.Add(uint8(4), 32, -5, 17, -1.0, 50.0, 900.0, 800.0, uint64(5), -1.0, 0.01)
	f.Add(uint8(5), 16, 16, 6, nan, inf, nan, -inf, uint64(6), nan, inf)
	f.Add(uint8(5), 16, 16, 6, 1e300, 50.0, 900.0, 800.0, uint64(7), 1.0, 0.01)
	f.Add(uint8(1), 16, 16, 6, 1e5, 1e-300, 900.0, 800.0, uint64(8), 1.0, -inf)
	f.Add(uint8(3), 16, 16, 6, 1e5, 50.0, 1e300, 800.0, uint64(10), 1.0, 0.01)
	f.Add(uint8(2), math.MaxInt, math.MaxInt, 0, 1e5, 1.0, 1e300, math.MaxFloat64, uint64(9), math.MaxFloat64, 0.0)
	f.Fuzz(func(t *testing.T, nodes uint8, w0, w, maxStage int, duration, slot, ts, tc float64, seed uint64, gain, cost float64) {
		n := int(nodes%8) + 1
		cw := backoff.Uniform(w, n)
		cw[0] = w0
		run := backoff.Run{
			Timing:   phy.Timing{Slot: slot, Ts: ts, Tc: tc, Payload: 1},
			MaxStage: maxStage,
			CW:       cw,
			Duration: duration,
			Seed:     seed,
			Gain:     gain,
			Cost:     cost,
		}
		accepted := run.Validate() == nil
		validProfile := run
		validProfile.CW = backoff.Uniform(1, n)
		profileFree := validProfile.Validate() == nil
		nw := cliqueGraph(n)

		decide := func(name string, err error, sentinel error, want bool) {
			t.Helper()
			if want && err != nil {
				t.Fatalf("%s rejected a run the shared validator accepts: %v", name, err)
			}
			if !want && !errors.Is(err, sentinel) {
				t.Fatalf("%s: got %v, want an error wrapping %v", name, err, sentinel)
			}
		}
		mcfg := macsim.Config{Run: run}
		scfg := SimConfig{Run: run}
		decide("macsim.Validate", mcfg.Validate(), macsim.ErrInvalidConfig, accepted)
		_, err := macsim.NewEngine(mcfg)
		decide("macsim.NewEngine", err, macsim.ErrInvalidConfig, accepted)
		_, err = NewSimulator(nw, scfg)
		decide("NewSimulator", err, ErrInvalidSimConfig, accepted)
		strategies := make([]core.Strategy, n)
		for i := range strategies {
			strategies[i] = core.Constant{W: 16}
		}
		_, err = NewEngine(nw, strategies, scfg)
		decide("NewEngine", err, ErrInvalidSimConfig, profileFree)

		bounded := accepted && duration <= 1e5*min(slot, ts, tc)
		if accepted && !bounded {
			return
		}
		fast, err := macsim.Run(mcfg)
		decide("macsim.Run", err, macsim.ErrInvalidConfig, accepted)
		ref, err := macsim.RunReference(mcfg)
		decide("macsim.RunReference", err, macsim.ErrInvalidConfig, accepted)
		sfast, err := Simulate(nw, scfg)
		decide("Simulate", err, ErrInvalidSimConfig, accepted)
		sref, err := SimulateReference(nw, scfg)
		decide("SimulateReference", err, ErrInvalidSimConfig, accepted)
		if !accepted {
			return
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("macsim.Run diverged from RunReference:\n%+v\n%+v", fast, ref)
		}
		if !reflect.DeepEqual(sfast, sref) {
			t.Fatalf("Simulate diverged from SimulateReference:\n%+v\n%+v", sfast, sref)
		}
	})
}
