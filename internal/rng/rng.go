// Package rng provides the random-number machinery used throughout the
// simulator. The paper's ParallelSpikeSim performs stochastic STDP rolls and
// stochastic rounding "on-board the GPU to leverage the fast CUDA random
// number generator". This package is the CPU substitute: a small, fast,
// allocation-free PRNG toolkit with two complementary designs.
//
//   - Stream: a stateful xoshiro256** generator for sequential use
//     (workload generation, dataset synthesis, anything single-threaded).
//   - Counter-based hashing (Hash64, Uniform, Bernoulli): stateless draws
//     keyed by (seed, identifiers...). A draw for synapse s at step t is a
//     pure function of (seed, s, t), so a parallel engine that partitions
//     synapses across goroutines produces bit-identical results to a
//     sequential one — a stronger reproducibility guarantee than cuRAND
//     stream ordering provides.
//
// All generators in this package are deterministic given their seed and must
// never be replaced by math/rand's global state inside simulation code.
package rng

import "errors"

// SplitMix64 advances the given state by the SplitMix64 step and returns the
// next 64-bit output. It is the canonical seeding/mixing function used to
// expand a single user seed into full generator state.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 mixes a seed with an arbitrary list of counters into a single
// well-distributed 64-bit value. It is the basis of every counter-based
// (stateless) draw in the simulator.
//
// The computation is exposed piecewise as HashInit / HashMix / HashFin so
// hot loops that share a counter prefix (the sparse spike-train builder
// hashes (step, pixel) for every pixel of one step) can fold the shared
// counters once and reuse the intermediate state — bit-identical to calling
// Hash64 with the full counter list, because Hash64 itself is defined in
// terms of the same three functions.
func Hash64(seed uint64, counters ...uint64) uint64 {
	h := HashInit(seed)
	for _, c := range counters {
		h = HashMix(h, c)
	}
	return HashFin(h)
}

// HashInit begins a piecewise Hash64 computation: it returns the internal
// mixing state for a counter-free hash of seed. Fold counters in with
// HashMix and finish with HashFin.
func HashInit(seed uint64) uint64 {
	return seed ^ 0x6a09e667f3bcc908 // sqrt(2) fractional bits: fixed tweak
}

// HashMix folds one counter into a piecewise Hash64 state. HashMix(h, c) on
// a state built from counters c1..cn yields the state for c1..cn,c, so a
// shared counter prefix can be mixed once and fanned out.
func HashMix(h, c uint64) uint64 {
	h ^= c + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	return SplitMix64(&h)
}

// HashFin applies Hash64's finalization round to a piecewise state:
// HashFin(HashMix(...HashMix(HashInit(seed), c1)..., cn)) == Hash64(seed,
// c1, ..., cn). The extra round keeps short counter lists fully mixed.
func HashFin(h uint64) uint64 {
	return SplitMix64(&h)
}

// Uniform returns a float64 in [0, 1) derived from (seed, counters).
func Uniform(seed uint64, counters ...uint64) float64 {
	return Float64From(Hash64(seed, counters...))
}

// Bernoulli returns true with probability p, using the stateless draw keyed
// by (seed, counters). Probabilities outside [0, 1] saturate.
func Bernoulli(p float64, seed uint64, counters ...uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return Uniform(seed, counters...) < p
}

// Float64From maps a 64-bit word to a float64 in [0, 1) using the top 53
// bits, the standard unbiased construction.
func Float64From(u uint64) float64 {
	return float64(u>>11) * (1.0 / (1 << 53))
}

// Stream is a stateful xoshiro256** PRNG. The zero value is NOT valid; use
// NewStream. Stream is not safe for concurrent use; give each goroutine its
// own (see Split) or use the counter-based API.
type Stream struct {
	s [4]uint64
}

// NewStream returns a Stream seeded from a single 64-bit seed via SplitMix64,
// per the xoshiro authors' recommendation.
func NewStream(seed uint64) *Stream {
	var st Stream
	sm := seed
	for i := range st.s {
		st.s[i] = SplitMix64(&sm)
	}
	// xoshiro must not start at the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return &st
}

// State returns the stream's full internal state so a checkpoint can
// persist it and SetState can later resume the sequence exactly where it
// left off. Together with the counter-based API (where the "state" is just
// the step counters a caller already tracks) this makes every source of
// randomness in the simulator checkpointable.
func (r *Stream) State() [4]uint64 { return r.s }

// SetState restores a state previously captured with State. The all-zero
// state is unreachable by a valid xoshiro256** stream (the generator would
// emit zeros forever), so it is rejected — it can only come from a corrupt
// or forged checkpoint.
func (r *Stream) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("rng: all-zero stream state")
	}
	r.s = s
	return nil
}

// Split derives an independent child stream. The child's sequence is
// decorrelated from the parent's continuation because derivation passes
// through SplitMix64 with a distinct tag.
func (r *Stream) Split() *Stream {
	return NewStream(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit value of the xoshiro256** sequence.
func (r *Stream) Uint64() uint64 {
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

// Float64 returns the next float64 in [0, 1).
func (r *Stream) Float64() float64 { return Float64From(r.Uint64()) }

// Intn returns an int uniform on [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation with rejection.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	t = aHi*bLo + t>>32
	w1 := t & mask
	w2 := t >> 32
	t = aLo*bHi + w1
	hi = aHi*bHi + w2 + t>>32
	lo |= t << 32
	return hi, lo
}

// Bernoulli returns true with probability p from the stream.
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a float64 uniform on [lo, hi).
func (r *Stream) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
