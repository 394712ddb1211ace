// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used by the synthetic workload generators. Determinism matters:
// every simulation must be exactly reproducible from its seed so that paper
// figures regenerate bit-identically across runs and platforms.
//
// The generator is xorshift64* (Vigna, 2014-style multiply finisher). It is
// not cryptographically secure and must never be used for anything but
// workload synthesis.
package xrand

// Rand is a deterministic xorshift64* generator. The zero value is invalid;
// use New, which maps a zero seed to a fixed non-zero constant.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. A zero seed is replaced by a
// fixed odd constant so the generator never gets stuck at zero.
func New(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *Rand) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a pseudo-random int in [0, n), Uint64() mod n. It panics
// if n <= 0. A power-of-two n takes the low bits by mask, which is the
// same remainder without the division.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	if n&(n-1) == 0 {
		return int(r.Uint64() & uint64(n-1))
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Geometric returns a sample from a geometric-ish distribution with the
// given mean (>= 1). It is used for burst lengths in workload generation.
func (r *Rand) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	// Inverse-CDF sampling of a geometric distribution with success
	// probability 1/mean, clamped to at least 1.
	p := 1.0 / mean
	u := r.Float64()
	// Avoid log(0).
	if u >= 1 {
		u = 0.9999999999
	}
	n := 1
	q := 1 - p
	acc := p
	for u > acc && n < 1<<20 {
		u -= acc
		acc *= q
		n++
	}
	return n
}

// Perm fills dst with a pseudo-random permutation of [0, len(dst)).
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Split derives an independent generator from this one. Deriving rather
// than sharing keeps per-thread streams decoupled so adding instructions to
// one thread does not perturb another thread's stream.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xD1B54A32D192ED03)
}
