package sim

import "repro/internal/rng"

// BatchContext is the per-worker state behind batched execution: one
// batch runs K repetitions of the same cell through a scheme's flat
// kernel, accumulating the per-repetition outputs into structure-of-
// arrays slices instead of K individual Result structs. Like RunContext
// it is strictly private to one goroutine, and everything it holds is
// either reset per batch or keyed on exact inputs, so batched execution
// is bit-for-bit identical to the scalar reference path (pinned by the
// batch/scalar equivalence property and fuzz tests).
//
// The slices are parallel, indexed by position in the batch's seed
// slice; Grow sizes them, except Wrong. Seeds and Keys are caller-owned
// input scratch (the experiment layer fills the per-repetition rng
// seeds and quantile sketch keys there to avoid per-batch allocation);
// the remaining slices are the kernel's outputs, consumed by
// stats.Shard.ObserveBatch (or ObserveRuns, which drops Wrong).
//
// Wrong is the silent-corruption column, and the caller opts into it:
// GrowWrong sizes it, Grow never does. A batch that can end in silent
// corruption (the imperfect fault-tolerance model) runs only when the
// column holds at least len(seeds) elements; otherwise the kernel
// refuses the batch, so a caller that reads only the five other
// columns never drops a corrupted completion.
type BatchContext struct {
	// Seeds holds the per-repetition stream seeds of the current batch.
	Seeds []uint64
	// Keys holds the per-repetition quantile-sketch identities.
	Keys []uint64

	// Completed reports on-time completion per repetition.
	Completed []bool
	// Energy and Time are the Result.Energy / Result.Time values.
	Energy, Time []float64
	// Faults and Switches are the per-repetition counts, pre-widened to
	// float64 for stats accumulation.
	Faults, Switches []float64
	// Wrong reports Result.SilentCorruption per repetition: completed
	// with replica divergence still undetected. Sized only by GrowWrong.
	Wrong []bool

	// States holds the batch's per-repetition initial generator states
	// in structure-of-arrays form. Kernels derive them from the seed
	// slice in one pass (States.Reseed) and install each repetition's
	// state with States.Load — the batched replacement for a per-
	// repetition Source.Reseed, bit-identical by rng's contract.
	States rng.StateBatch

	src     rng.Source
	scratch any
}

// NewBatchContext returns an empty context ready for its first batch.
func NewBatchContext() *BatchContext { return &BatchContext{} }

// Grow sizes every per-repetition slice but Wrong to length n, reusing
// backing arrays. Previous contents are unspecified — kernels write
// every element of the outputs they produce.
func (b *BatchContext) Grow(n int) {
	b.Seeds = growU64(b.Seeds, n)
	b.Keys = growU64(b.Keys, n)
	b.Completed = growBool(b.Completed, n)
	b.Energy = growF64(b.Energy, n)
	b.Time = growF64(b.Time, n)
	b.Faults = growF64(b.Faults, n)
	b.Switches = growF64(b.Switches, n)
}

// GrowWrong sizes the Wrong column to length n, opting the caller into
// batches that can end in silent corruption.
func (b *BatchContext) GrowWrong(n int) { b.Wrong = growBool(b.Wrong, n) }

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Source returns the context's reusable stream. Kernels run repetitions
// rep-major, so one stream serves the whole batch: Reseed per
// repetition, exactly like the scalar RunContext path.
func (b *BatchContext) Source() *rng.Source { return &b.src }

// Scratch returns the opaque per-context cache slot set by SetScratch
// (nil initially). Package core parks its kernel scratch here.
func (b *BatchContext) Scratch() any { return b.scratch }

// SetScratch replaces the per-context cache slot.
func (b *BatchContext) SetScratch(v any) { b.scratch = v }

// BatchScheme is implemented by schemes whose warm path can execute a
// whole batch of repetitions through a flat kernel. RunBatch must be
// bit-for-bit equivalent to len(seeds) scalar RunCtx calls with the
// same seeds, observed through the stats.Shard fields (Completed,
// Energy, Time, Faults, Switches, and silent corruption through Wrong).
type BatchScheme interface {
	Scheme
	// RunBatch runs len(seeds) repetitions, writing the outputs into
	// b's slices (sized by the kernel via Grow; Wrong by the caller). It
	// returns false — without touching b — when the configuration is
	// outside the kernel's envelope (tracing, custom fault processes),
	// when the batch can end in silent corruption and b's Wrong column
	// is shorter than seeds, or when the scheme has no kernel; the
	// caller then falls back to the scalar path.
	RunBatch(rc *RunContext, b *BatchContext, p Params, seeds []uint64) bool
}

// RunBatch dispatches a whole batch through s's kernel when the scheme
// supports batching, reporting whether the batch was executed. A false
// return leaves b untouched; the caller runs the scalar path instead.
func RunBatch(rc *RunContext, b *BatchContext, s Scheme, p Params, seeds []uint64) bool {
	if bs, ok := s.(BatchScheme); ok && rc != nil && b != nil {
		return bs.RunBatch(rc, b, p, seeds)
	}
	return false
}
