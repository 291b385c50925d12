// Package rng provides deterministic, splittable pseudo-random number
// generation for reproducible simulations.
//
// Every experiment in this repository is seeded, and re-running a binary
// with the same seed reproduces the same trajectory bit-for-bit. The
// package implements splitmix64 (for seeding) and xoshiro256** (for the
// stream) so that results do not depend on the Go runtime's unexported
// random source and remain stable across Go releases.
package rng

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** PRNG.
//
// The zero value is not a valid source (its state would be all zeros, a
// fixed point of xoshiro); construct one with New or NewFromState. Source
// is not safe for concurrent use; give each goroutine its own stream via
// Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, as recommended by
// the xoshiro authors. Distinct seeds produce decorrelated streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitialises r in place from seed, exactly as New would. It
// performs no allocation, which lets hot paths (the simulator engines)
// embed a Source by value and reset it between runs.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// All-zero state is invalid; splitmix64 cannot produce four zero
	// outputs in a row, but guard against it for defence in depth.
	if r.s == [4]uint64{} {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// NewFromState restores a Source from a state previously returned by State.
// It returns an error if the state is all zeros (invalid for xoshiro).
func NewFromState(state [4]uint64) (*Source, error) {
	if state == [4]uint64{} {
		return nil, errors.New("rng: all-zero state is invalid")
	}
	return &Source{s: state}, nil
}

// State returns the internal state, suitable for checkpointing.
func (r *Source) State() [4]uint64 { return r.s }

// splitmix64 advances a splitmix64 state and returns the new state and
// the output value.
func splitmix64(x uint64) (next, out uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return x, z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits: one xoshiro256** step,
// its state updates folded into a single store.
//
// Every backoff draw and receiver pick runs through Uint64, so it is
// written on locals to stay under the compiler's inlining budget (cost
// 63 of 80) and inline into Intn and Float64. Keep it there:
// `go build -gcflags=-m ./internal/rng` must print
// "can inline (*Source).Uint64".
func (r *Source) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// DeriveSeed deterministically derives a decorrelated stream seed from a
// base seed, a textual stream label, and an index within that stream
// family. It replaces ad-hoc `base + offset` seed arithmetic, whose
// overlapping offsets silently make distinct experiments reuse PRNG
// streams: two calls differing in any of (base, stream, index) yield
// unrelated seeds, while the same triple always yields the same seed.
func DeriveSeed(base uint64, stream string, index int) uint64 {
	// FNV-1a over the stream label separates stream families even when
	// their labels share a prefix.
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= fnvPrime
	}
	// Two splitmix64 rounds — one before and one after folding in the
	// index — avalanche single-bit differences in any component across
	// the whole output word.
	_, mixed := splitmix64(base ^ h)
	_, out := splitmix64(mixed + uint64(index)*0x9e3779b97f4a7c15)
	return out
}

// Split returns a new Source whose stream is decorrelated from r.
// It consumes entropy from r, so calling Split in a fixed order yields a
// reproducible tree of streams.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0,
// mirroring math/rand's contract.
//
// The draw is Lemire's multiply-shift method (unbiased): the high word
// of a 128-bit product, inline, with the rare rejection loop and the
// panic out of line so a draw is a single call.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panicIntn(n)
	}
	hi, lo := bits.Mul64(r.Uint64(), uint64(n))
	if lo < uint64(n) {
		hi = r.reject(hi, lo, uint64(n))
	}
	return int(hi)
}

// reject finishes a Lemire draw whose first product (hi, lo) had lo
// below n: it redraws while lo falls under 2^64 mod n, the biased tail,
// and returns the accepted high word.
func (r *Source) reject(hi, lo, n uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// panicIntn is Intn's cold path, kept out of line so Intn's frame does
// not carry the formatting call.
//
//go:noinline
func panicIntn(n int) {
	panic(fmt.Sprintf("rng: Intn called with n = %d", n))
}

// UniformRange returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Source) UniformRange(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: UniformRange called with inverted range [%g, %g)", lo, hi))
	}
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method (deterministic given the stream, no tables).
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
