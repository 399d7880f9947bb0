package sim

import (
	"sync"

	"repro/internal/rng"
)

// RunContext is the per-worker reusable state behind a sequence of
// simulated executions: one engine (with its meter, fault-process and
// checkpoint-store buffers), one random stream, and a scratch slot that
// schemes use to keep per-cell caches (package core parks its plan cache
// there). A RunContext is strictly private to one goroutine — sharing it
// would corrupt runs; the experiment runner gives each worker its own.
//
// Everything a RunContext amortises is keyed on exact inputs or reset on
// reuse, so running a scheme through a context is bit-for-bit identical
// to running it fresh (pinned by the golden-equivalence suite and the
// Workers=1 vs Workers=N determinism test).
type RunContext struct {
	eng     Engine
	src     rng.Source
	scratch any
}

// NewRunContext returns an empty context ready for its first run.
func NewRunContext() *RunContext { return &RunContext{} }

// Contexts is one goroutine's pair of reusable simulation contexts: a
// RunContext for scalar runs and planning, and a BatchContext for the
// batched kernel. Pairs come from one process-wide pool so that the
// contexts' allocations — engine buffers, the plan cache, batch scratch
// — are paid once per pooled pair, not once per run, work unit or sweep
// point.
type Contexts struct {
	Run   RunContext
	Batch BatchContext
}

var contextPool = sync.Pool{New: func() any { return new(Contexts) }}

// GetContexts takes a context pair from the process-wide pool, the only
// pool of simulation contexts: the experiment runner's workers, remote
// work units, missions, sweeps and the facade's MonteCarlo all draw
// from it. The pair is private
// to the caller until PutContexts. No caller relies on a pair's warmth,
// and warm state never changes results (see RunContext).
func GetContexts() *Contexts { return contextPool.Get().(*Contexts) }

// PutContexts returns c to the pool. A caller whose run panicked while
// holding c drops it instead, so a half-updated context never reaches
// another run.
func PutContexts(c *Contexts) { contextPool.Put(c) }

// Reseed re-initialises the context's random stream from seed — the
// reusable equivalent of rng.New(seed) — and returns it.
func (rc *RunContext) Reseed(seed uint64) *rng.Source {
	rc.src.Reseed(seed)
	return &rc.src
}

// Engine resets the context's engine for a fresh execution with the
// given parameters and stream, and returns it. The engine is reused
// across calls; see Engine.Reset for the equivalence guarantee.
func (rc *RunContext) Engine(p Params, src *rng.Source) *Engine {
	rc.eng.Reset(p, src)
	return &rc.eng
}

// Scratch returns the opaque per-context cache slot set by SetScratch
// (nil initially). Schemes store per-cell state here — e.g. the plan
// cache — and must key it on their full configuration, because one
// context serves many cells over its lifetime.
func (rc *RunContext) Scratch() any { return rc.scratch }

// SetScratch replaces the per-context cache slot.
func (rc *RunContext) SetScratch(v any) { rc.scratch = v }

// ContextScheme is implemented by schemes that can run through a
// RunContext, reusing its engine and caches. RunCtx with a fresh context
// must be bit-for-bit equivalent to Run.
type ContextScheme interface {
	Scheme
	// RunCtx simulates one task execution, drawing randomness from src
	// and scratch state from rc. rc must not be nil.
	RunCtx(rc *RunContext, p Params, src *rng.Source) Result
}

// RunScheme runs s through rc when the scheme supports contexts, and
// falls back to the plain allocating path otherwise. It is the single
// dispatch point the experiment, mission and facade layers use, so
// third-party Scheme implementations keep working unchanged.
func RunScheme(rc *RunContext, s Scheme, p Params, src *rng.Source) Result {
	if cs, ok := s.(ContextScheme); ok && rc != nil {
		return cs.RunCtx(rc, p, src)
	}
	return s.Run(p, src)
}
