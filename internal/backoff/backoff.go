// Package backoff holds what both DCF simulators must agree on exactly:
// the run parameters they take and the contention-window schedule they
// draw from.
//
// Run is the one declaration of the seven parameters of a saturated DCF
// run (timing, backoff cap, CW profile, duration, seed, gain and cost),
// with one validator and one Table I default. internal/macsim's Config
// and internal/multihop's SimConfig embed it by value and add only what
// each simulator needs beyond it.
//
// The window at backoff stage j is W·2^j, capped at W·2^m — a node's
// window can never exceed cw << maxStage no matter what stage value it
// carries. Both simulators draw their backoff counters through Draw, so
// the defensive cap is applied uniformly and the two engines cannot
// drift apart.
package backoff

import (
	"errors"
	"fmt"
	"math"

	"selfishmac/internal/phy"
	"selfishmac/internal/rng"
)

// Run parameterises one saturated DCF run.
type Run struct {
	// Timing carries sigma, Ts, Tc and E[P] for the access mode under test.
	Timing phy.Timing
	// MaxStage is the backoff-doubling cap m.
	MaxStage int
	// CW is the per-node initial contention window.
	CW []int
	// Duration is the simulated time in microseconds.
	Duration float64
	// Seed drives the deterministic PRNG.
	Seed uint64
	// Gain and Cost are the per-packet utility parameters g and e of the
	// measured payoff (paper Section V.C: U = (ns·g − ne·e)/t).
	Gain float64
	Cost float64
}

// Default returns the paper's Table I run for an access mode: the
// default PHY's timing, m = 6, g = 1 and e = 0.01, with the given CW
// profile, duration and seed.
func Default(mode phy.AccessMode, cw []int, duration float64, seed uint64) Run {
	p := phy.Default()
	return Run{
		Timing:   p.MustTiming(mode),
		MaxStage: p.MaxBackoffStage,
		CW:       cw,
		Duration: duration,
		Seed:     seed,
		Gain:     1,
		Cost:     0.01,
	}
}

// Uniform returns a fresh n-node profile with every window at w.
func Uniform(w, n int) []int {
	cw := make([]int, n)
	for i := range cw {
		cw[i] = w
	}
	return cw
}

// Validate checks the run parameters and joins every violation; each
// simulator wraps the result in its own sentinel. It does not check the
// profile's length, which each simulator checks against its own node
// count. Every float must be finite: NaN slips through ordered
// comparisons, so each check is written so that NaN fails it, and the
// math.MaxFloat64 bound rejects +Inf. The duration and both holds must
// also span fewer than maxSlots slots (FitsSlots). Validate allocates
// nothing on a valid run.
func (r Run) Validate() error {
	var errs []error
	for i, w := range r.CW {
		if w < 1 {
			errs = append(errs, fmt.Errorf("node %d CW %d < 1", i, w))
		}
	}
	slotOK := r.Timing.Slot > 0 && r.Timing.Slot <= math.MaxFloat64
	if !(r.Duration > 0 && r.Duration <= math.MaxFloat64) {
		errs = append(errs, fmt.Errorf("duration %g must be positive and finite", r.Duration))
	} else if slotOK && !FitsSlots(r.Duration, r.Timing.Slot) {
		errs = append(errs, fmt.Errorf("duration %g spans 2^62 or more slots of %g", r.Duration, r.Timing.Slot))
	}
	if r.MaxStage < 0 || r.MaxStage > 16 {
		errs = append(errs, fmt.Errorf("max backoff stage %d outside [0, 16]", r.MaxStage))
	}
	for _, v := range [...]float64{r.Timing.Slot, r.Timing.Ts, r.Timing.Tc} {
		if !(v > 0 && v <= math.MaxFloat64) {
			errs = append(errs, fmt.Errorf("timing %+v needs positive, finite Slot, Ts and Tc", r.Timing))
			slotOK = false
			break
		}
	}
	if slotOK && !(FitsSlots(r.Timing.Ts, r.Timing.Slot) && FitsSlots(r.Timing.Tc, r.Timing.Slot)) {
		errs = append(errs, fmt.Errorf("timing %+v: Ts and Tc must each span fewer than 2^62 slots", r.Timing))
	}
	if !(r.Gain >= 0 && r.Gain <= math.MaxFloat64) || !(r.Cost >= 0 && r.Cost <= math.MaxFloat64) {
		errs = append(errs, fmt.Errorf("gain %g and cost %g must be non-negative and finite", r.Gain, r.Cost))
	}
	return errors.Join(errs...)
}

// maxSlots bounds every span a run counts in slots: its duration, its
// success and collision holds, and multihop's mobility period. The
// spatial simulator converts each to an int64 slot count and adds a
// hold to a slot index, so each count must stay below 2^62 for the sum
// to fit.
const maxSlots = 1 << 62

// FitsSlots reports whether a span of d microseconds, cut into slots of
// the given length, counts fewer than maxSlots slots.
func FitsSlots(d, slot float64) bool { return d/slot < maxSlots }

// Window returns the contention window at the given stage: cw << stage,
// capped at cw << maxStage. Stages are normally capped when they advance,
// so the cap here is defensive, but it guarantees the invariant for any
// caller state.
func Window(cw, stage, maxStage int) int {
	if stage > maxStage {
		stage = maxStage
	}
	return cw << stage
}

// Draw returns a fresh uniform backoff counter in [0, Window) for the
// given stage. It consumes exactly one value from src, which is part of
// the simulators' determinism contract (PRNG draw order).
func Draw(src *rng.Source, cw, stage, maxStage int) int {
	return src.Intn(Window(cw, stage, maxStage))
}
