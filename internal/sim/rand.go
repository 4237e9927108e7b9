package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random source
// (xorshift64star). It exists instead of math/rand so that simulation
// results are stable across Go releases: math/rand's default source and
// shuffling algorithms have changed between versions, which would silently
// change experiment outputs.
type Rand struct {
	state uint64
}

// NewRand returns a source seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRand(seed int64) *Rand {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &Rand{state: s}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform random int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed random duration with the given
// mean. It is used to model Poisson arrival processes (open-loop load
// generators) and memoryless service jitter.
func (r *Rand) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	d := Duration(-float64(mean) * math.Log(u))
	if d < 0 {
		return 0
	}
	return d
}

// Fork returns a new independent source derived from this one, for
// components that need their own stream without sharing state.
func (r *Rand) Fork() *Rand {
	return NewRand(int64(r.Uint64()))
}
