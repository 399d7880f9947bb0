// Package rng provides a small, deterministic pseudo-random number
// generator with the distribution samplers the checkpointing simulator
// needs (uniform, exponential, Poisson, normal).
//
// The generator is xoshiro256**, seeded through SplitMix64 so that any
// 64-bit seed (including 0) yields a well-mixed state. Experiments create
// one independent stream per Monte-Carlo repetition via Split, which makes
// every table cell reproducible regardless of execution order or
// parallelism.
package rng

import "math"

// Source is a deterministic xoshiro256** generator.
//
// The zero value is not usable; construct with New or Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// splitMixGamma is SplitMix64's Weyl-sequence increment.
const splitMixGamma = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 output finaliser: a bijective avalanche over
// one 64-bit word. Reseed, Stream and their batch forms all derive
// state through it.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Reseed re-initialises the generator from seed, as if freshly created by
// New(seed).
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += splitMixGamma
		r.s[i] = mix64(sm)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zero words from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = splitMixGamma
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
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

// Split derives an independent child stream. The child is seeded from the
// parent's next output, so Split(i-th call) is deterministic given the
// parent seed.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := al*bh + (al*bl)>>32
	lo = a * b
	hi = ah*bh + t>>32 + (t&mask+ah*bl)>>32
	return hi, lo
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate), via the 256-layer ziggurat (see ziggurat.go). It
// panics if rate <= 0 or NaN.
func (r *Source) Exp(rate float64) float64 {
	if !(rate > 0) {
		panic("rng: Exp with non-positive or NaN rate")
	}
	return r.expUnit() / rate
}

// ExpBatch fills dst with successive exponentially distributed values
// with the given rate — exactly the sequence len(dst) successive Exp
// calls would produce, draw for draw and bit for bit. It fills the bulk
// fault arrival queue (fault.Arrivals), which perfbench's traced replay
// and BenchmarkArrivalSpanWalk use to time the fault layer's bulk path;
// the batch kernels draw their arrivals live with Exp. Same panic
// contract as Exp.
func (r *Source) ExpBatch(rate float64, dst []float64) {
	if !(rate > 0) {
		panic("rng: Exp with non-positive or NaN rate")
	}
	for i := range dst {
		dst[i] = r.expUnit() / rate
	}
}

// ExpLog is the inverse-CDF reference sampler (-log(U)/rate, one
// uniform per draw). The ziggurat sampler is pinned against it
// statistically; it is exported for tests and for callers that need the
// pre-ziggurat draw sequence. Same panic contract as Exp.
func (r *Source) ExpLog(rate float64) float64 {
	if !(rate > 0) {
		panic("rng: Exp with non-positive or NaN rate")
	}
	// -log(U) with U in (0,1]; 1-Float64() is in (0,1].
	return -math.Log(1-r.Float64()) / rate
}

// Poisson returns a Poisson-distributed count with the given mean.
// It panics if mean < 0, NaN or +Inf. For large means it uses the PTRS
// transformed rejection method; for small means, inversion by
// sequential search.
func (r *Source) Poisson(mean float64) int {
	switch {
	case mean < 0 || math.IsNaN(mean):
		panic("rng: Poisson with negative or NaN mean")
	case math.IsInf(mean, 1):
		// The PTRS rejection below would spin forever on k = NaN;
		// reject the mean instead of hanging the simulation.
		panic("rng: Poisson with infinite mean")
	case mean == 0:
		return 0
	case mean < 30:
		// Knuth inversion.
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		// PTRS (Hörmann 1993).
		b := 0.931 + 2.53*math.Sqrt(mean)
		a := -0.059 + 0.02483*b
		invAlpha := 1.1239 + 1.1328/(b-3.4)
		vr := 0.9277 - 3.6224/(b-2)
		for {
			u := r.Float64() - 0.5
			v := r.Float64()
			us := 0.5 - math.Abs(u)
			k := math.Floor((2*a/us+b)*u + mean + 0.43)
			if us >= 0.07 && v <= vr {
				return int(k)
			}
			if k < 0 || (us < 0.013 && v > us) {
				continue
			}
			if math.Log(v*invAlpha/(a/(us*us)+b)) <=
				k*math.Log(mean)-mean-logGamma(k+1) {
				return int(k)
			}
		}
	}
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the polar Box-Muller transform.
func (r *Source) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// logGamma is a thin wrapper over math.Lgamma discarding the sign (always
// +1 for positive arguments, the only ones we use).
func logGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Stream derives the i-th member of a counter-based family of seed
// streams keyed on base: the SplitMix64 finaliser applied to
// base + (i+1)·γ. Unlike a sequential Split chain, Stream(base, i) is a
// pure function of (base, i) — any stream of the family can be
// constructed on any worker in any order, which is what lets the
// experiment runner shard a cell's repetitions and still merge to
// bit-identical results. Neighbouring indices yield unrelated streams
// (the finaliser is a bijective avalanche).
func Stream(base uint64, i int) uint64 {
	return mix64(base + splitMixGamma*uint64(i+1))
}

// StreamBatch fills dst[j] with Stream(base, start+j) — the bulk form of
// the per-repetition seed derivation the experiment layer performs for a
// shard. One pass over a contiguous index range keeps the finaliser's
// independent multiply chains pipelining across iterations, where the
// one-at-a-time calls serialise on call overhead.
func StreamBatch(base uint64, start int, dst []uint64) {
	ctr := base + splitMixGamma*uint64(start)
	for j := range dst {
		ctr += splitMixGamma
		dst[j] = mix64(ctr)
	}
}

// StateBatch holds the initial xoshiro256** generator states of a whole
// batch of seeds in structure-of-arrays form: column i across the four
// lanes is exactly the state Source.Reseed(seeds[i]) would install. The
// batch kernels derive a shard's states in one pass (Reseed) and install
// them per repetition with Load, replacing len(seeds) scalar Reseed
// calls whose four dependent finaliser rounds otherwise serialise at
// every repetition boundary.
//
// The zero value is ready to use; Reseed sizes the lanes, reusing their
// backing arrays across batches.
type StateBatch struct {
	s0, s1, s2, s3 []uint64
}

// Reseed derives the initial state of every seed, bit-identical to what
// Source.Reseed would install — including the all-zero-state guard,
// unreachable through SplitMix64 but replicated so Load is equivalent to
// Reseed on every input.
func (sb *StateBatch) Reseed(seeds []uint64) {
	n := len(seeds)
	sb.s0 = growLane(sb.s0, n)
	sb.s1 = growLane(sb.s1, n)
	sb.s2 = growLane(sb.s2, n)
	sb.s3 = growLane(sb.s3, n)
	s0, s1, s2, s3 := sb.s0, sb.s1, sb.s2, sb.s3
	for i, seed := range seeds {
		sm := seed + splitMixGamma
		a := mix64(sm)
		sm += splitMixGamma
		b := mix64(sm)
		sm += splitMixGamma
		c := mix64(sm)
		sm += splitMixGamma
		d := mix64(sm)
		if a|b|c|d == 0 {
			a = splitMixGamma
		}
		s0[i], s1[i], s2[i], s3[i] = a, b, c, d
	}
}

// Load installs the i-th derived state into r, as if r.Reseed had been
// called with the i-th seed of the last Reseed batch.
func (sb *StateBatch) Load(r *Source, i int) {
	r.s[0], r.s[1], r.s[2], r.s[3] = sb.s0[i], sb.s1[i], sb.s2[i], sb.s3[i]
}

func growLane(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
