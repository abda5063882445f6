// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the reproduction so that every experiment is
// exactly repeatable from a single seed.
//
// The generator is xoshiro256**, seeded via SplitMix64. Split derives an
// independent stream from a parent stream, which lets concurrent workers
// (e.g. simulated GPU ranks) draw random numbers without locking while
// remaining reproducible regardless of scheduling order.
package rng

import "math"

// Rand is a xoshiro256** generator. The zero value is not valid; use New.
type Rand struct {
	s [4]uint64
	// cached spare normal deviate for NormFloat64 (Box-Muller polar method)
	hasSpare bool
	spare    float64
}

// splitMix64 advances the state and returns the next SplitMix64 output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// Avoid the pathological all-zero state (cannot occur from SplitMix64
	// in practice, but guard anyway).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of r's
// subsequent outputs. It consumes entropy from r.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := (-uint64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	tLo, tHi := t&mask32, t>>32
	t = aLo*bHi + tLo
	lo |= t << 32
	hi = aHi*bHi + tHi + t>>32
	return hi, lo
}

// NormFloat64 returns a standard normal deviate using the polar
// Box-Muller method.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place (Fisher-Yates).
func (r *Rand) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// SampleWithoutReplacement returns k distinct values drawn uniformly from
// [0, n). If k >= n it returns all of [0, n) in random order. The result
// order is random.
func (r *Rand) SampleWithoutReplacement(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	if k <= 0 {
		return nil
	}
	// Floyd's algorithm: O(k) expected time, O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Shuffle so the order carries no bias toward later indices.
	r.Shuffle(out)
	return out
}
