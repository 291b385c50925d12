package search

import "testing"

// landscapePayoff derives an arbitrary but deterministic payoff landscape
// from a fuzz seed: payoff(w) is a hash of (seed, w) mapped into [0, 1).
// The landscape has no structure at all — no unimodality, plateaus and
// ties everywhere — which is exactly what the termination guarantee must
// survive.
func landscapePayoff(seed uint64) func(w int) float64 {
	return func(w int) float64 {
		x := seed ^ (uint64(w) * 0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return float64(x>>11) / (1 << 53)
	}
}

// FuzzRunTerminates asserts the walks' contract on arbitrary payoff
// landscapes: each terminates and announces a measured CW in [1, WMax].
// The paper walk uses at most 2*WMax probes; the accelerated walk never
// measures a CW twice, so it uses at most WMax.
func FuzzRunTerminates(f *testing.F) {
	f.Add(uint64(0), 16, 64)
	f.Add(uint64(1), 1, 1)
	f.Add(uint64(42), 64, 64)
	f.Add(uint64(7), 33, 100)
	f.Fuzz(func(t *testing.T, seed uint64, w0, wMax int) {
		if wMax < 1 || wMax > 4096 {
			wMax = 1 + int(uint(wMax)%4096)
		}
		if w0 < 1 || w0 > wMax {
			w0 = 1 + int(uint(w0)%uint(wMax))
		}
		check := func(name string, res Result, err error, maxProbes int) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s failed on a total payoff landscape: %v", name, err)
			}
			if res.W < 1 || res.W > wMax {
				t.Fatalf("%s announced W=%d outside [1, %d]", name, res.W, wMax)
			}
			if res.ProbeCount() > maxProbes {
				t.Fatalf("%s used %d probes, bound is %d", name, res.ProbeCount(), maxProbes)
			}
			// The announced W must be one of the measured points.
			found := false
			for _, p := range res.Probes {
				if p.W == res.W {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s announced W=%d, which was never measured", name, res.W)
			}
		}
		res, err := Run(&funcEnv{payoff: landscapePayoff(seed)}, 0, w0, Options{WMax: wMax})
		check("Run", res, err, 2*wMax)
		res, err = AcceleratedSearch(&funcEnv{payoff: landscapePayoff(seed)}, 0, w0, Options{WMax: wMax})
		check("AcceleratedSearch", res, err, wMax)
	})
}

// FuzzResilientRunTerminates asserts the same contract for the hardened
// walk, whose patience and re-verification add at most one extra probe
// per step: 2*WMax probes total. Without faults each probe is the median
// of exactly three measurements.
func FuzzResilientRunTerminates(f *testing.F) {
	f.Add(uint64(0), 16, 64)
	f.Add(uint64(3), 5, 30)
	f.Add(uint64(99), 1, 1)
	f.Fuzz(func(t *testing.T, seed uint64, w0, wMax int) {
		if wMax < 1 || wMax > 1024 {
			wMax = 1 + int(uint(wMax)%1024)
		}
		if w0 < 1 || w0 > wMax {
			w0 = 1 + int(uint(w0)%uint(wMax))
		}
		env := &funcEnv{payoff: landscapePayoff(seed)}
		res, err := ResilientRun(env, 0, w0, Options{WMax: wMax})
		if err != nil {
			t.Fatalf("ResilientRun failed on a total payoff landscape: %v", err)
		}
		if res.W < 1 || res.W > wMax {
			t.Fatalf("announced W=%d outside [1, %d]", res.W, wMax)
		}
		if res.ProbeCount() > 2*wMax {
			t.Fatalf("used %d probes, bound is 2*WMax = %d", res.ProbeCount(), 2*wMax)
		}
		if res.Degraded {
			t.Fatal("Degraded set without a probe budget")
		}
		if res.Measurements != 3*res.ProbeCount() || res.Retries != 0 {
			t.Fatalf("%d measurements and %d retries for %d probes, want median-of-3 and no retry",
				res.Measurements, res.Retries, res.ProbeCount())
		}
	})
}
