package fault

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Arrivals is a pre-materialised homogeneous Poisson arrival queue: the
// fault layer's bulk counterpart of PoissonProcess, which perfbench's
// traced replay and BenchmarkArrivalSpanWalk time (the batch kernels
// draw their arrivals live). Instead of one
// virtual Next call per fault, inter-arrival gaps are drawn in bulk
// through rng.Source.ExpBatch and converted to absolute times up front;
// the per-fault hot path is then a cursor increment.
//
// The absolute times are bit-identical to the ones PoissonProcess.Next
// would return from the same stream: the bulk fill draws the same
// exponentials in the same order and accumulates them with the same
// sequence of additions (now += gap). Drawing ahead of need is harmless
// for the simulator's reproducibility because a repetition's stream is
// private to it and consumed only for fault arrivals — over-drawn values
// are simply discarded with the stream.
//
// The zero value is unusable; call Reset first. An Arrivals is reused
// across repetitions (Reset keeps the backing arrays), so a reused
// queue reaches zero steady-state allocation.
type Arrivals struct {
	lambda float64
	src    *rng.Source
	now    float64
	times  []float64 // absolute arrival times materialised so far
	cur    int       // next index to hand out
	gaps   []float64 // scratch for bulk inter-arrival fills
}

// Reset rewinds the queue to time zero on a fresh stream and
// pre-materialises about hint arrivals (at least one; ignored when
// lambda is zero). It panics on a negative or NaN rate or a nil source,
// matching NewPoisson.
func (a *Arrivals) Reset(lambda float64, src *rng.Source, hint int) {
	if lambda < 0 || math.IsNaN(lambda) {
		panic(fmt.Sprintf("fault: negative Poisson rate %v", lambda))
	}
	if src == nil {
		panic("fault: nil rng source")
	}
	a.lambda = lambda
	a.src = src
	a.now = 0
	a.times = a.times[:0]
	a.cur = 0
	if lambda == 0 {
		return
	}
	if hint < 1 {
		hint = 1
	}
	a.fill(hint)
}

// fill materialises n more arrivals: n exponential gaps drawn in bulk,
// then accumulated onto the running clock in draw order (the same
// now += gap additions one at a time would perform, with the clock
// kept in a register across the batch).
func (a *Arrivals) fill(n int) {
	if cap(a.gaps) < n {
		a.gaps = make([]float64, n)
	}
	gaps := a.gaps[:n]
	a.src.ExpBatch(a.lambda, gaps)
	times, now := a.times, a.now
	base := len(times)
	if cap(times)-base < n {
		grown := make([]float64, base, 2*base+n)
		copy(grown, times)
		times = grown
	}
	times = times[:base+n]
	for i, g := range gaps {
		now += g
		times[base+i] = now
	}
	a.times, a.now = times, now
}

// refillChunk is how many more arrivals an exhausted queue materialises
// at once. Callers size the initial fill near the expected consumption,
// so exhaustion is the thin tail of the per-repetition fault count — a
// small constant chunk wastes far fewer draws than doubling would, and
// a pathological repetition still only pays one cheap bulk fill per
// chunk of faults.
const refillChunk = 8

// Next returns the next arrival time, materialising more when the
// pre-drawn prefix is exhausted. A zero-rate queue never fires (returns
// +Inf), like PoissonProcess. The pre-drawn case is kept small enough
// to inline into the kernels' span loops; exhaustion (and the
// zero-rate queue, whose times stay empty) takes the outlined path.
func (a *Arrivals) Next() float64 {
	i := a.cur
	if i >= len(a.times) {
		return a.nextSlow()
	}
	a.cur = i + 1
	return a.times[i]
}

func (a *Arrivals) nextSlow() float64 {
	if a.lambda == 0 {
		return math.Inf(1)
	}
	a.fill(refillChunk)
	v := a.times[a.cur]
	a.cur++
	return v
}

// Rate returns the arrival rate, like PoissonProcess.Rate.
func (a *Arrivals) Rate() float64 { return a.lambda }

// Times returns the arrival times materialised so far as a plain slice —
// the structure-of-arrays view the batch kernels' span walks index
// directly, replacing one Next call per fault with slice arithmetic.
// The slice is read-only, invalidated by the next Reset, and possibly
// regrown by EnsureBeyond (which returns the replacement). A positive-
// rate queue always holds at least one materialised arrival after Reset.
func (a *Arrivals) Times() []float64 { return a.times }

// EnsureBeyond materialises arrivals until the newest one lies at or
// beyond bound, returning the (possibly regrown) times slice. Span walks
// call it before scanning a span known to contain arrivals, which keeps
// the scan loop free of length checks: the slice is guaranteed to hold a
// value >= the span end. It must not be called on a zero-rate queue
// (whose times stay empty; the kernels use a +Inf sentinel instead).
func (a *Arrivals) EnsureBeyond(bound float64) []float64 {
	if a.lambda == 0 {
		panic("fault: EnsureBeyond on a zero-rate arrival queue")
	}
	for a.now < bound {
		a.fill(refillChunk)
	}
	return a.times
}
