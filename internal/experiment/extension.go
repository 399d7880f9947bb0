package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tmr"
)

// ExtensionTables returns sub-tables whose columns go beyond the paper,
// run on the Table 1(a) grid so the extensions sit on the same axes as
// the reproduction. They have no published reference values (Score
// returns ok=false).
//
//   - "E1": redundancy ablation — the DATE'03 comparator, the paper
//     scheme, and adaptive TMR with voting (×1.5 energy, single faults
//     masked).
//   - "E2": λ-knowledge ablation — the paper scheme planning with the
//     true λ, with a 10× underestimate, and with the online estimator
//     recovering from that same bad prior; the fault process always runs
//     at the grid's true λ.
//   - "E3": imperfect-FT ablation — the paper's schemes re-run with
//     detection coverage below one, latent store corruption and
//     fault-vulnerable checkpoint operations (DefaultImperfection), next
//     to the ideal paper scheme as reference. Checkpoint-heavy schemes
//     pay for their exposed checkpoint time and their larger corruptible
//     store population, which reorders the columns relative to Table 1a.
//   - "E4": tiered-store ablation — the paper scheme under shrinking
//     checkpoint-set bounds on the default NVRAM+flash stack
//     (store.DefaultConfig), next to the free-infinite-store reference,
//     plus one column combining the k=4 store with the imperfect-FT
//     model. Smaller k means evicted rollback targets, deeper restore
//     cascades and restarts, so P degrades as capacity shrinks.
func ExtensionTables() []Spec {
	base, _ := TableByID("1a")
	e1 := base
	e1.ID, e1.Title = "E1", "extension: redundancy ablation (DMR vs TMR voting), SCP setting, k=5"
	e2 := base
	e2.ID, e2.Title = "E2", "extension: λ-knowledge ablation (true vs wrong vs estimated), SCP setting, k=5"
	e3 := base
	e3.ID, e3.Title = "E3", "extension: imperfect-FT ablation (coverage/corruption/vulnerable ops), SCP setting, k=5"
	e4 := base
	e4.ID, e4.Title = "E4", "extension: tiered-store ablation (bounded checkpoint sets on NVRAM+flash), SCP setting, k=5"
	return []Spec{e1, e2, e3, e4}
}

// DefaultImperfection is the knob setting of the E3 ablation and the
// degraded-mode CLI default: 2% of divergent comparisons slip through,
// 8% of stored checkpoints are latently corrupted, and checkpoint
// operations are themselves exposed to fault arrivals.
func DefaultImperfection() fault.Imperfection {
	return fault.Imperfection{
		Coverage:             0.98,
		StoreCorruption:      0.08,
		CheckpointVulnerable: true,
	}
}

// ExtensionSchemes returns the columns of an extension table by id.
func ExtensionSchemes(id string) ([]sim.Scheme, error) {
	switch id {
	case "E1":
		return []sim.Scheme{
			core.NewADTDVS(),
			core.NewAdaptDVSSCP(),
			tmr.NewAdaptive(),
		}, nil
	case "E2":
		return []sim.Scheme{
			core.NewAdaptDVSSCP(),
			misbelievingScheme{factor: 0.1},
			misbelievingScheme{factor: 0.1, online: true},
		}, nil
	case "E3":
		im := DefaultImperfection()
		return []sim.Scheme{
			core.NewAdaptDVSSCP(), // ideal reference
			ImperfectScheme(core.NewPoissonScheme(1), im),
			ImperfectScheme(core.NewKFTScheme(1), im),
			ImperfectScheme(core.NewADTDVS(), im),
			ImperfectScheme(core.NewAdaptDVSSCP(), im),
		}, nil
	case "E4":
		return []sim.Scheme{
			core.NewAdaptDVSSCP(), // free infinite store reference
			StoreScheme(core.NewAdaptDVSSCP(), store.DefaultConfig(8)),
			StoreScheme(core.NewAdaptDVSSCP(), store.DefaultConfig(4)),
			StoreScheme(core.NewAdaptDVSSCP(), store.DefaultConfig(2)),
			StoreScheme(ImperfectScheme(core.NewAdaptDVSSCP(), DefaultImperfection()), store.DefaultConfig(4)),
		}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown extension table %q", id)
	}
}

// misbelievingScheme runs the paper scheme with the planner's λ scaled
// by factor while the fault process keeps the grid's true rate — the
// wrong-belief harness of the λ-knowledge ablation. With online set, the
// scaled value only seeds the estimator's prior.
type misbelievingScheme struct {
	factor float64
	online bool
}

// Name implements sim.Scheme.
func (m misbelievingScheme) Name() string {
	if m.online {
		return fmt.Sprintf("A_D_S+est(prior×%g)", m.factor)
	}
	return fmt.Sprintf("A_D_S(λ-belief×%g)", m.factor)
}

// Run implements sim.Scheme.
func (m misbelievingScheme) Run(p sim.Params, src *rng.Source) sim.Result {
	return m.RunCtx(nil, p, src)
}

// RunCtx implements sim.ContextScheme, forwarding the context to the
// wrapped paper scheme. rctx may be nil (the plain Run path).
func (m misbelievingScheme) RunCtx(rctx *sim.RunContext, p sim.Params, src *rng.Source) sim.Result {
	truth := p.Lambda
	p.FaultProcess = func(s *rng.Source) fault.Process {
		return fault.NewPoisson(truth, s)
	}
	s := m.inner(truth)
	p.Lambda = truth * m.factor
	return sim.RunScheme(rctx, s, p, src)
}

// RunBatch implements sim.BatchScheme: the wrong-belief harness rides
// the batch kernel by decoupling the rates instead of installing a
// custom fault process. The kernel's live arrival draws at the true
// rate (next += src.Exp(truth)) are the same exponentials, in the same
// order, as the scalar path's plain Poisson process, so the shard
// payloads stay
// byte-identical (pinned by the E2 equivalence test).
func (m misbelievingScheme) RunBatch(rctx *sim.RunContext, b *sim.BatchContext, p sim.Params, seeds []uint64) bool {
	truth := p.Lambda
	s := m.inner(truth)
	p.Lambda = truth * m.factor
	return s.RunBatchArrival(rctx, b, p, seeds, truth)
}

// inner builds the wrapped paper scheme for a cell's true rate.
func (m misbelievingScheme) inner(truth float64) *core.Adaptive {
	s := core.NewAdaptDVSSCP()
	if m.online {
		s = s.WithOnlineLambda(truth * m.factor)
	}
	return s
}

// ImperfectScheme wraps a scheme so every run executes under the given
// imperfect-FT model, overriding whatever the cell parameters say. The
// scheme's own planning is untouched — it still believes in perfect
// detection and sound stores, which is exactly the ablation.
func ImperfectScheme(inner sim.Scheme, im fault.Imperfection) sim.Scheme {
	return imperfectScheme{inner: inner, im: im}
}

type imperfectScheme struct {
	inner sim.Scheme
	im    fault.Imperfection
}

// Name implements sim.Scheme.
func (s imperfectScheme) Name() string { return s.inner.Name() + "+imp" }

// Run implements sim.Scheme.
func (s imperfectScheme) Run(p sim.Params, src *rng.Source) sim.Result {
	return s.RunCtx(nil, p, src)
}

// RunCtx implements sim.ContextScheme, forwarding the context to the
// wrapped scheme when it supports one. rctx may be nil.
func (s imperfectScheme) RunCtx(rctx *sim.RunContext, p sim.Params, src *rng.Source) sim.Result {
	im := s.im
	p.Imperfect = &im
	return sim.RunScheme(rctx, s.inner, p, src)
}

// RunBatch implements sim.BatchScheme, forwarding the batch to the
// wrapped scheme's kernel under the imperfect-FT model, which the
// kernels run in their live-draw mode. A wrapped scheme without a
// kernel, or a context without a Wrong column, refuses, and the caller
// falls back to the scalar path.
func (s imperfectScheme) RunBatch(rctx *sim.RunContext, b *sim.BatchContext, p sim.Params, seeds []uint64) bool {
	im := s.im
	p.Imperfect = &im
	return sim.RunBatch(rctx, b, s.inner, p, seeds)
}

// StoreScheme wraps a scheme so every run executes under the given
// tiered checkpoint store, overriding whatever the cell parameters say.
// The scheme's own planning is untouched — it still assumes every
// checkpoint it takes will be restorable, which is exactly the
// ablation: the policy pays for eviction decisions it did not plan for.
func StoreScheme(inner sim.Scheme, cfg *store.Config) sim.Scheme {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return storeScheme{inner: inner, cfg: cfg}
}

type storeScheme struct {
	inner sim.Scheme
	cfg   *store.Config
}

// Name implements sim.Scheme; the store label keeps columns
// distinguishable ("A_D_S+store(k4/quasi-geometric)").
func (s storeScheme) Name() string { return s.inner.Name() + "+store(" + s.cfg.Label() + ")" }

// Run implements sim.Scheme.
func (s storeScheme) Run(p sim.Params, src *rng.Source) sim.Result {
	return s.RunCtx(nil, p, src)
}

// RunCtx implements sim.ContextScheme, forwarding the context to the
// wrapped scheme when it supports one. rctx may be nil.
func (s storeScheme) RunCtx(rctx *sim.RunContext, p sim.Params, src *rng.Source) sim.Result {
	p.Store = s.cfg
	return sim.RunScheme(rctx, s.inner, p, src)
}

// RunBatch implements sim.BatchScheme, forwarding the batch to the
// wrapped scheme's kernel under the store. A wrapped scheme without a
// kernel refuses, and the caller falls back to the scalar path.
func (s storeScheme) RunBatch(rctx *sim.RunContext, b *sim.BatchContext, p sim.Params, seeds []uint64) bool {
	p.Store = s.cfg
	return sim.RunBatch(rctx, b, s.inner, p, seeds)
}

// RunExtensionTable runs one extension spec with the runner, through
// the same table path as RunTable.
func (r Runner) RunExtensionTable(spec Spec) (Table, error) {
	schemes, err := ExtensionSchemes(spec.ID)
	if err != nil {
		return Table{}, err
	}
	return r.runTable(context.Background(), spec, schemes)
}
