// Package rng provides the fast, seedable pseudo-random machinery that
// every sampling component in this repository is built on: a xoshiro256++
// generator, geometric skip sampling for subset sampling, Walker alias
// tables for O(1) discrete sampling, and the exponential/Weibull variate
// generators used to synthesise skewed edge-weight distributions.
//
// All generators are deterministic for a fixed seed, which makes every
// experiment in the repository reproducible bit-for-bit. None of the
// generators here are cryptographically secure; they are tuned for the
// Monte-Carlo workloads of influence maximization.
package rng

import "math"

// Source is a xoshiro256++ pseudo-random generator. The zero value is not
// usable; construct one with New. Source is not safe for concurrent use;
// give each goroutine its own Source (see Split).
//
// Every draw writes the state, so two goroutines whose Sources share a
// cache line stall each other on every draw (false sharing). A Source is
// therefore padded to sourceSize bytes, two cache lines: the allocator
// serves that size class at sourceSize-aligned addresses, so each Source
// New or Split returns owns its lines, including the neighbouring line
// that x86 cores prefetch in pairs.
type Source struct {
	s0, s1, s2, s3 uint64
	_              [sourceSize - 32]byte
}

// sourceSize is the padded size of a Source: two 64-byte cache lines.
const sourceSize = 128

// splitmix64 advances a 64-bit state and returns the next output. It is
// used to expand a single seed word into the four xoshiro state words, as
// recommended by the xoshiro authors: it guarantees a well-mixed non-zero
// state for any seed, including 0.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// yield statistically independent streams.
func New(seed uint64) *Source {
	r := &Source{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state as if the Source had been created by
// New(seed).
func (r *Source) Seed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
}

// Split derives a new independent Source from r. It is the supported way
// to hand per-worker generators to concurrent samplers without sharing
// state.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa3ec647659359acd)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform float64 in the half-open interval [0, 1). It
// uses the top 53 bits of Uint64, so every representable value has the
// same probability.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// OpenFloat64 returns a uniform float64 in the open interval (0, 1). It
// is used where a logarithm of the variate is taken and 0 must never be
// produced.
func (r *Source) OpenFloat64() float64 {
	for {
		if u := r.Float64(); u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0. The
// implementation uses Lemire's multiply-shift rejection method, which
// avoids the modulo bias of naive reduction while performing a single
// multiplication in the common case.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo). It mirrors
// math/bits.Mul64 but is written out so the package remains dependency
// free at this level; the compiler recognises the pattern and emits a
// single MUL instruction on 64-bit targets.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Bernoulli reports true with probability p. Probabilities outside [0,1]
// are clamped: p <= 0 is always false and p >= 1 is always true.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) as a slice, using
// the Fisher–Yates shuffle.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Exponential returns a variate from the exponential distribution with
// rate lambda (mean 1/lambda). It panics if lambda <= 0.
func (r *Source) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exponential requires lambda > 0")
	}
	return -math.Log(r.OpenFloat64()) / lambda
}

// Weibull returns a variate from the Weibull distribution with shape a
// and scale b, via inverse-transform sampling. It panics if a <= 0 or
// b <= 0.
func (r *Source) Weibull(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		panic("rng: Weibull requires a > 0 and b > 0")
	}
	return b * math.Pow(-math.Log(r.OpenFloat64()), 1/a)
}

// UniformRange returns a uniform float64 in [lo, hi). It panics if
// hi < lo.
func (r *Source) UniformRange(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: UniformRange requires hi >= lo")
	}
	return lo + (hi-lo)*r.Float64()
}
