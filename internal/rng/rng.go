// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every source of randomness in the simulator is an explicit, seedable
// stream so that a simulation run is a pure function of its seeds. The
// generators are plain value types: copying a Stream copies its state,
// which is what makes Machine.Snapshot a correct checkpoint.
//
// The core generator is xoshiro256**, seeded via splitmix64 as its
// authors recommend.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances the splitmix64 state and returns the next value.
// It is used for seeding and for deriving independent child seeds from a
// parent seed.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive deterministically derives the i-th child seed from a parent
// seed. Distinct (parent, i) pairs yield independent-looking seeds.
func Derive(parent uint64, i uint64) uint64 {
	s := parent ^ (0x9e3779b97f4a7c15 * (i + 1))
	SplitMix64(&s)
	return SplitMix64(&s)
}

// Stream is a xoshiro256** generator. The zero value is invalid; use New.
// Stream is a value type: assignment snapshots the generator.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// New returns a Stream seeded from seed via splitmix64.
func New(seed uint64) Stream {
	var st Stream
	st.Seed(seed)
	return st
}

// Seed re-seeds the stream.
func (r *Stream) Seed(seed uint64) {
	sm := seed
	r.s0 = SplitMix64(&sm)
	r.s1 = SplitMix64(&sm)
	r.s2 = SplitMix64(&sm)
	r.s3 = SplitMix64(&sm)
}

// Digest folds the generator's full internal state into one 64-bit
// word without advancing it. Two streams digest equal iff they will
// produce identical output forever, which is what state-digest
// recording (internal/digest) needs from workload generators.
func (r Stream) Digest() uint64 {
	h := uint64(14695981039346656037)
	for _, s := range [4]uint64{r.s0, r.s1, r.s2, r.s3} {
		h = (h ^ s) * 1099511628211
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). n must be > 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method is overkill here; plain modulo
	// bias is negligible for the small n the simulator uses, but we use
	// the multiply-shift reduction anyway since it is branch-free.
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Int63n returns a uniform int64 in [0, n).
func (r *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int64(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Stream) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Zipf returns a value in [0, n) following an approximate Zipf
// distribution with exponent theta (0 < theta < 1 gives mild skew,
// theta near 1 strong skew). It uses the classic inverse-power
// approximation, which is accurate enough for cache-locality modelling.
func (r *Stream) Zipf(n int, theta float64) int {
	if n <= 1 {
		return 0
	}
	u := r.Float64()
	// Inverse CDF of the continuous approximation x^(1-theta).
	v := math.Pow(u, 1/(1-theta))
	k := int(v * float64(n))
	if k >= n {
		k = n - 1
	}
	return k
}

// Norm returns a normally distributed value (Box-Muller, single value;
// the discarded pair keeps the stream stateless beyond its 4 words).
func (r *Stream) Norm(mean, std float64) float64 {
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + std*z
}

// Perm fills p with a random permutation of [0, len(p)).
func (r *Stream) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
