// Package rng provides small, fast, deterministic pseudo-random number
// generators and samplers.
//
// The simulator must be bit-for-bit reproducible: the same seed has to
// produce the same workload trace, the same probabilistic-update decisions,
// and therefore the same results on every run and every Go release. The
// standard library's math/rand makes no cross-version stability promise, so
// we implement splitmix64 (seeding) and xoshiro256** (bulk generation)
// ourselves, plus the handful of distributions the workload generators need
// (uniform, Bernoulli, bounded Pareto, Zipf over a finite set).
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is a tiny 64-bit generator used to expand a single seed into
// the state of larger generators. It passes through every 64-bit value and
// has no bad seeds.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator: fast, 256 bits of state, and
// statistically strong for simulation purposes.
type Rand struct {
	s [4]uint64
}

// New returns a Rand seeded deterministically from seed.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	r := &Rand{}
	for i := range r.s {
		r.s[i] = sm.Uint64()
	}
	// A xoshiro state of all zeros is degenerate; splitmix cannot emit four
	// consecutive zeros, but guard anyway for the zero-seed paranoia case.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// State returns the generator's 256-bit internal state, for
// checkpointing. Restoring it with SetState resumes the exact sequence.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state (checkpoint
// restore). An all-zero state is degenerate and rejected the same way
// New guards it.
func (r *Rand) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit value.
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

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless method with rejection for exactness.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 computes the 128-bit product of a and b. bits.Mul64 is a compiler
// intrinsic (a single widening multiply on amd64/arm64), bit-exact with
// the long-form schoolbook product it replaced.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bernoulli is a Bool(p) decision precomputed for a fixed p: Draw makes
// exactly the decision Bool(p) makes and consumes the same draws, but
// compares the raw 53-bit draw against an integer threshold instead of
// converting it to a float. Float64() < p holds exactly when
// Uint64()>>11 < ceil(p·2^53), since p·2^53 is exact in floating point.
type Bernoulli struct {
	t     uint64 // a draw hits when Uint64()>>11 < t
	fixed bool   // p <= 0 or p >= 1: the decision is t != 0, drawn from nothing
}

// NewBernoulli precomputes the Bool(p) decision.
func NewBernoulli(p float64) Bernoulli {
	switch {
	case p <= 0:
		return Bernoulli{fixed: true}
	case p >= 1:
		return Bernoulli{t: 1, fixed: true}
	case p > 0:
		return Bernoulli{t: uint64(math.Ceil(p * (1 << 53)))}
	}
	return Bernoulli{} // NaN: Bool draws, and the comparison never holds
}

// Draw returns the decision Bool(p) would return for b's p.
func (r *Rand) Draw(b Bernoulli) bool {
	if b.fixed {
		return b.t != 0
	}
	return r.Uint64()>>11 < b.t
}

// Pareto returns a bounded Pareto sample in [lo, hi] with shape alpha.
// Small alpha (≈1) gives a heavy tail; large alpha concentrates near lo.
func (r *Rand) Pareto(alpha float64, lo, hi float64) float64 {
	if lo >= hi {
		return lo
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	// Inverse CDF of the bounded Pareto distribution.
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return x
}

// Zipf samples indices in [0, n) with probability proportional to
// 1/(i+1)^s using a precomputed cumulative table and binary search.
// It is deterministic given the Rand it draws from.
type Zipf struct {
	cum []float64 // cum[i] = cumulative weight through rank i
}

// NewZipf builds a Zipf sampler over n items with skew s (s >= 0;
// s == 0 is uniform).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	z := &Zipf{cum: make([]float64, n)}
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	return z
}

// N returns the number of items the sampler draws from.
func (z *Zipf) N() int { return len(z.cum) }

// Sample draws one index using r.
func (z *Zipf) Sample(r *Rand) int {
	target := r.Float64() * z.cum[len(z.cum)-1]
	// Binary search for the first cum[i] >= target.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
