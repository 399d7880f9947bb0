// Order-independent accumulation: the merge algebra behind rep-level
// sharded execution. A grid cell's repetitions can be split into
// arbitrary shards, run on any worker in any order, and merged back to
// a Summary that is bit-for-bit identical to any other partition or
// completion order. Three ingredients make that possible:
//
//   - counts (trials, completions, corrupted completions) are integers —
//     exactly associative;
//   - real-valued sums (energy, time, faults, switches and the energy
//     square sum) go through FixedSum, an exact fixed-point
//     superaccumulator: additions never round, so the accumulated state
//     is the exact real-number sum, unique whatever the order;
//   - quantiles come from TailSample, a bottom-k sketch keyed on a
//     per-repetition hash: the kept subset is "the k observations with
//     the smallest keys", a set definition with no order in it.
//
// Derived statistics (means, variances, confidence intervals) are
// computed once, at freeze time, from the exact state — one rounding,
// the same rounding, for every partition.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// fixedLimbs × 64 bits of fixed point, spanning bit weights
// [fixedOffset, fixedOffset + 64·fixedLimbs). The range covers every
// finite non-negative float64 (subnormals bottom out at 2^-1074) with
// headroom for 2^63 summands of the largest magnitude.
const (
	fixedLimbs  = 34
	fixedOffset = -1088
)

// FixedSum accumulates non-negative float64 values exactly: the
// internal state is a 2176-bit fixed-point integer holding the true
// real-number sum, so Add and Merge are associative and commutative
// with no rounding anywhere. Two FixedSums fed the same multiset of
// values in any order, through any shard partition, hold identical
// state. The zero value is an empty sum.
type FixedSum struct {
	limbs [fixedLimbs]uint64
	nans  int
	infs  int
}

// Add folds one value in. Negative values panic (the experiment's
// summed quantities — energies, times, counts — are all non-negative;
// signed exact accumulation would need a second accumulator and no
// caller wants it). NaN and +Inf are tracked exactly and surface in
// Value.
func (f *FixedSum) Add(x float64) {
	b := math.Float64bits(x)
	if b == 0 { // +0 (−0 has the sign bit and panics below)
		return
	}
	if b>>63 != 0 {
		panic("stats: FixedSum.Add with negative value")
	}
	exp := int(b >> 52) // sign bit already known zero
	m := b & (1<<52 - 1)
	switch exp {
	case 0x7ff:
		if m != 0 {
			f.nans++
		} else {
			f.infs++
		}
		return
	case 0:
		exp = 1 // subnormal: 2^(1-1075) weight, no implicit bit
	default:
		m |= 1 << 52
	}
	pos := exp - 1075 - fixedOffset // bit position of m's LSB, ≥ 0
	limb, shift := pos>>6, uint(pos&63)
	lo := m << shift
	hi := m >> (64 - shift) // shift 64 is defined as 0 in Go
	var c uint64
	f.limbs[limb], c = bits.Add64(f.limbs[limb], lo, 0)
	f.limbs[limb+1], c = bits.Add64(f.limbs[limb+1], hi, c)
	for i := limb + 2; c != 0 && i < fixedLimbs; i++ {
		f.limbs[i], c = bits.Add64(f.limbs[i], 0, c)
	}
}

// Merge folds another sum in exactly.
func (f *FixedSum) Merge(o *FixedSum) {
	var c uint64
	for i := 0; i < fixedLimbs; i++ {
		f.limbs[i], c = bits.Add64(f.limbs[i], o.limbs[i], c)
	}
	f.nans += o.nans
	f.infs += o.infs
}

// Reset empties the sum for reuse.
func (f *FixedSum) Reset() { *f = FixedSum{} }

// Value renders the exact sum as a float64. Because the internal state
// is canonical (the exact sum has one representation), the returned
// bits are identical for every accumulation order; the conversion
// itself is within 2 ulp of the correctly rounded exact value (limbs
// are folded smallest-first, so only the top two contribute rounding).
func (f *FixedSum) Value() float64 {
	if f.nans > 0 {
		return math.NaN()
	}
	if f.infs > 0 {
		return math.Inf(1)
	}
	v := 0.0
	for i := 0; i < fixedLimbs; i++ {
		if f.limbs[i] != 0 {
			v += math.Ldexp(float64(f.limbs[i]), 64*i+fixedOffset)
		}
	}
	return v
}

// IsZero reports whether nothing non-zero was ever added.
func (f *FixedSum) IsZero() bool {
	if f.nans > 0 || f.infs > 0 {
		return false
	}
	for _, l := range f.limbs {
		if l != 0 {
			return false
		}
	}
	return true
}

// tailCap bounds the memory a TailSample keeps, matching the sequential
// Reservoir's capacity so quantile resolution is unchanged.
const tailCap = 4096

type tailEntry struct {
	key uint64
	val float64
}

// less orders entries by (key, value bits) — a total order, so the kept
// bottom-k set is unique even under (astronomically unlikely) key
// collisions.
func (e tailEntry) less(o tailEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return math.Float64bits(e.val) < math.Float64bits(o.val)
}

// TailSample is an order-independent bounded uniform sample: each
// observation carries a pseudo-random 64-bit key (derived by the caller
// from the repetition's identity, never from arrival order), and the
// sample keeps the tailCap entries with the smallest keys. That set is
// a uniform random subset of the stream — the bottom-k trick — and is
// determined by the observation multiset alone, so shards merge to
// identical quantiles in any order. The zero value is empty.
type TailSample struct {
	seen int
	// entries is a max-heap on less, so the largest key sits at the
	// root and is evicted first.
	entries []tailEntry
}

// Add folds one keyed observation in.
func (t *TailSample) Add(key uint64, val float64) {
	t.seen++
	e := tailEntry{key: key, val: val}
	if len(t.entries) < tailCap {
		t.entries = append(t.entries, e)
		t.siftUp(len(t.entries) - 1)
		return
	}
	if !e.less(t.entries[0]) {
		return
	}
	t.entries[0] = e
	t.siftDown(0)
}

func (t *TailSample) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.entries[p].less(t.entries[i]) {
			return
		}
		t.entries[p], t.entries[i] = t.entries[i], t.entries[p]
		i = p
	}
}

func (t *TailSample) siftDown(i int) {
	n := len(t.entries)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && t.entries[big].less(t.entries[l]) {
			big = l
		}
		if r < n && t.entries[big].less(t.entries[r]) {
			big = r
		}
		if big == i {
			return
		}
		t.entries[i], t.entries[big] = t.entries[big], t.entries[i]
		i = big
	}
}

// Merge folds another sample in.
func (t *TailSample) Merge(o *TailSample) {
	// Add counts each kept entry again; pre-credit the dropped remainder.
	t.seen += o.seen - len(o.entries)
	for _, e := range o.entries {
		t.Add(e.key, e.val)
	}
}

// Reset empties the sample, keeping the backing array for reuse.
func (t *TailSample) Reset() {
	t.seen = 0
	t.entries = t.entries[:0]
}

// N returns how many observations were seen (not kept).
func (t *TailSample) N() int { return t.seen }

// Quantiles returns nearest-rank quantiles over the kept values, NaN
// when empty or out of range — same convention as Reservoir.Quantiles.
func (t *TailSample) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(t.entries) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := make([]float64, len(t.entries))
	for i, e := range t.entries {
		sorted[i] = e.val
	}
	sort.Float64s(sorted)
	for i, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			out[i] = math.NaN()
			continue
		}
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		out[i] = sorted[idx]
	}
	return out
}

// Shard accumulates per-run results like Cell, but with the
// order-independent algebra: any partition of a cell's repetitions into
// Shards, merged in any order, freezes to a bit-identical Summary.
// A Shard is single-goroutine state; workers merge under the cell's
// lock. The zero value is empty, and Reset recycles one without
// releasing the tail sample's backing array (the warm path allocates
// nothing).
type Shard struct {
	trials    int
	completed int
	wrong     int

	energy   FixedSum // over completions
	energySq FixedSum // Σ fl(e²) over completions, for the E confidence interval
	time     FixedSum // over completions
	faults   FixedSum // over all trials
	switches FixedSum // over all trials

	timeTail TailSample // completion times, bottom-k keyed
}

// ObserveRun folds one repetition in. key is a pseudo-random 64-bit
// identity of the repetition (derived from its seed, never its
// execution order) used by the quantile sketch; energy and timeToDone
// are consulted only for completed runs, matching Cell.
func (s *Shard) ObserveRun(key uint64, completed, wrong bool, energy, timeToDone, faults, switches float64) {
	s.trials++
	if wrong && completed {
		s.wrong++
	}
	s.faults.Add(faults)
	s.switches.Add(switches)
	if completed {
		s.completed++
		s.energy.Add(energy)
		s.energySq.Add(energy * energy)
		s.time.Add(timeToDone)
		s.timeTail.Add(key, timeToDone)
	}
}

// ObserveRuns folds a whole batch of repetitions in — the
// structure-of-arrays counterpart of ObserveRun, fed by the batch
// execution kernel: ObserveBatch with a nil wrong column, for batches
// that cannot end in silent corruption.
func (s *Shard) ObserveRuns(keys []uint64, completed []bool, energy, timeToDone, faults, switches []float64) {
	s.ObserveBatch(keys, completed, nil, energy, timeToDone, faults, switches)
}

// ObserveBatch is the batch intake. The slices are parallel and must
// have equal length, except that wrong may be nil (no repetition
// corrupted); observation i is exactly ObserveRun(keys[i],
// completed[i], wrong[i], energy[i], timeToDone[i], faults[i],
// switches[i]).
func (s *Shard) ObserveBatch(keys []uint64, completed, wrong []bool, energy, timeToDone, faults, switches []float64) {
	if wrong != nil {
		for i := range keys {
			if wrong[i] && completed[i] {
				s.wrong++
			}
		}
	}
	for i := range keys {
		s.trials++
		s.faults.Add(faults[i])
		s.switches.Add(switches[i])
		if completed[i] {
			s.completed++
			e := energy[i]
			s.energy.Add(e)
			s.energySq.Add(e * e)
			s.time.Add(timeToDone[i])
			s.timeTail.Add(keys[i], timeToDone[i])
		}
	}
}

// Merge folds another shard in. Every constituent is associative and
// commutative, so the merge order cannot affect any Summary bit.
func (s *Shard) Merge(o *Shard) {
	s.trials += o.trials
	s.completed += o.completed
	s.wrong += o.wrong
	s.energy.Merge(&o.energy)
	s.energySq.Merge(&o.energySq)
	s.time.Merge(&o.time)
	s.faults.Merge(&o.faults)
	s.switches.Merge(&o.switches)
	s.timeTail.Merge(&o.timeTail)
}

// Reset empties the shard for reuse.
func (s *Shard) Reset() {
	tail := s.timeTail
	*s = Shard{}
	tail.Reset()
	s.timeTail = tail
}

// Trials returns the number of repetitions folded in so far.
func (s *Shard) Trials() int { return s.trials }

// binomial returns the (value, CI95) pair of a success count over n
// trials, with the Proportion NaN conventions.
func binomial(successes, n int) (float64, float64) {
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	v := float64(successes) / float64(n)
	return v, 1.96 * math.Sqrt(v*(1-v)/float64(n))
}

// Summary freezes the shard. All divisions and roots happen here, on
// the exact accumulated state, so the result is a pure function of the
// observation multiset.
func (s *Shard) Summary() Summary {
	p, pci := binomial(s.completed, s.trials)
	sdc, sdcci := binomial(s.wrong, s.trials)

	e, eci := math.NaN(), math.NaN()
	meanTime := math.NaN()
	if n := s.completed; n > 0 {
		sum := s.energy.Value()
		e = sum / float64(n)
		meanTime = s.time.Value() / float64(n)
		if n > 1 {
			// Textbook sum-of-squares variance on the exact sums. The
			// cancellation cost is bounded (both terms are exact to
			// ~1 ulp) and the arithmetic is order-free — Welford would
			// re-introduce sequence dependence.
			variance := (s.energySq.Value() - sum*sum/float64(n)) / float64(n-1)
			if variance < 0 {
				variance = 0
			}
			eci = 1.96 * math.Sqrt(variance/float64(n))
		}
	}

	meanFaults, meanSwitches := math.NaN(), math.NaN()
	if s.trials > 0 {
		meanFaults = s.faults.Value() / float64(s.trials)
		meanSwitches = s.switches.Value() / float64(s.trials)
	}

	qs := s.timeTail.Quantiles(0.5, 0.95)
	return Summary{
		Trials:       s.trials,
		P:            p,
		PCI:          pci,
		E:            e,
		ECI:          eci,
		MeanFaults:   meanFaults,
		MeanTime:     meanTime,
		MeanSwitches: meanSwitches,
		TimeP50:      qs[0],
		TimeP95:      qs[1],
		SDC:          sdc,
		SDCCI:        sdcci,
	}
}
