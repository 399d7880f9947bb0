package core

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// Plan is one planning decision of an adaptive scheme: the operating
// point to run at, the CSCP interval and the sub-interval length (equal
// to Interval when no additional checkpoints are used). BadConfig marks
// a configuration the platform cannot satisfy (a fixed frequency the CPU
// model lacks); the run then fails with sim.FailBadConfig instead of
// panicking.
type Plan struct {
	Point     cpu.OperatingPoint
	Interval  float64
	SubLen    float64
	BadConfig bool
}

// badConfigIdx is the operating-point index planIdx reports for a
// BadConfig plan.
const badConfigIdx = -1

// subEnvCap bounds the pool of per-environment NumSub memos. With the
// paper's two-speed processor and a fixed λ there are at most two
// environments; online λ estimation makes the rate continuous, at which
// point pooling stops paying and the planner computes directly.
const subEnvCap = 16

// Planner computes interval plans for an Adaptive scheme: the speed
// decision (paper §3), the DATE'03 interval() procedure and the optimal
// sub-interval count of Fig. 2. Every plan is computed from its inputs
// (rc, rd, λ, rf); everything else a plan depends on (scheme
// configuration, CPU model, cost model, task) is fixed at construction,
// and the per-(f, λ) constants — the TEst factors, the Fig. 4 interval
// environment, the NumSub memo — are pooled across plans. A RunContext
// keeps its current cell's planner, so the pools stay warm across the
// cell's repetitions.
//
// A Planner is not safe for concurrent use.
type Planner struct {
	cfg   Adaptive
	model *cpu.Model
	costs checkpoint.Costs
	task  task.Task

	// Operating-point indices into model.Points(), resolved once at
	// construction: the fixed-speed configuration's (badConfigIdx when
	// the model lacks that frequency) and the fastest point's, the speed
	// decision's fallback.
	fixedIdx, maxIdx int32

	// plans counts the plans computed. A RunContext's replacement
	// planner inherits the count, so PlansComputed is context-lifetime.
	plans uint64

	subs []subEnv
	envs []itvEnv

	// One-entry memos in front of the pools: the policy.Env of the last
	// (f, λ) planned, and the last NumSub answer on its exact
	// (f, λ, interval). Post-fault replans mostly land on the Poisson
	// branch, whose interval I1 = sqrt(2C/λ) is the same double every
	// time, so they skip the pool scan and the SubMemo map probe.
	envOK        bool
	envF, envLam uint64
	env          policy.Env
	subF, subLam uint64
	subItv       uint64
	subN         int // 0: empty (NumSub is at least 1)

	// Speed-decision precomputation: TEst(rc, f, c, λ) factors as
	// (rc/f)·(1+s)/(1-s) with s = sqrt(λ·c/f) constant per (point, λ).
	// te caches (1+s) and (1-s) per operating point for the λ it was
	// built against, so the per-plan feasibility test costs one divide,
	// one multiply and one divide instead of a sqrt chain per point.
	teLam uint64
	teOK  bool
	te    []tePoint
}

// tePoint is one operating point's precomputed TEst factors, at the
// point's index in model.Points(). A point with oneMinus ≤ 0 has s ≥ 1
// (TEst = +Inf): never feasible.
type tePoint struct {
	freq     float64
	onePlus  float64 // 1 + sqrt(λ·c/f), the exact double TEst computes
	oneMinus float64 // 1 - sqrt(λ·c/f)
}

// subEnv pairs one (frequency, λ) environment — keyed on exact float
// bits — with its NumSub memo; the pool is a linear-scanned slice
// because it holds at most a handful of entries (two for the paper's
// processor at fixed λ).
type subEnv struct {
	f, lam uint64
	sm     *analysis.SubMemo
}

// itvEnv pairs one (frequency, λ) environment with its precomputed
// policy.Env — the Fig. 4 interval constants for the wall-clock
// checkpoint cost at that speed. Same linear-scanned-pool shape as
// subEnv, and for the same reason: a planner sees at most a handful of
// (f, λ) pairs over its whole life.
type itvEnv struct {
	f, lam uint64
	env    policy.Env
}

// NewPlanner builds a planner for one scheme configuration over one
// platform (CPU model, cost model, task). The fault rate is not part of
// the construction state — it is a per-plan input, so one planner serves
// a whole λ sweep.
func NewPlanner(cfg Adaptive, model *cpu.Model, costs checkpoint.Costs, tk task.Task) *Planner {
	pts := model.Points()
	pl := &Planner{
		cfg:      cfg,
		model:    model,
		costs:    costs,
		task:     tk,
		fixedIdx: badConfigIdx,
		maxIdx:   int32(len(pts) - 1),
	}
	if !cfg.DVS {
		for i, pt := range pts {
			if pt.Freq == cfg.FixedFreq {
				pl.fixedIdx = int32(i)
				break
			}
		}
	}
	return pl
}

// Plan returns the planning decision for the state (rc remaining work
// in cycles, rd remaining deadline in wall time, lam the planning fault
// rate, rf the remaining fault budget). Planning is a pure function of
// the state: equal bits in, bit-identical plan out.
func (pl *Planner) Plan(rc, rd, lam float64, rf int) Plan {
	idx, itv, sub := pl.planIdx(rc, rd, lam, rf)
	if idx == badConfigIdx {
		return Plan{BadConfig: true}
	}
	return Plan{Point: pl.model.Points()[idx], Interval: itv, SubLen: sub}
}

// planIdx is the planning procedure behind Plan and the batch kernels:
// the chosen operating point as its index into model.Points() — the
// kernels' speedCosts index — or badConfigIdx, with the interval and
// sub-interval lengths.
func (pl *Planner) planIdx(rc, rd, lam float64, rf int) (idx int32, itv, subLen float64) {
	pl.plans++
	if pl.cfg.DVS {
		// The degenerate rc ≤ 0 corner (handled below) must not reach
		// TEst, which requires non-negative work; clamping leaves every
		// rc > 0 state untouched.
		idx = pl.pickSpeedPre(lam, math.Max(rc, 0), rd)
	} else if idx = pl.fixedIdx; idx == badConfigIdx {
		return badConfigIdx, 0, 0
	}
	f := pl.model.Points()[idx].Freq
	if rd <= 0 || rc <= 0 {
		deg := math.Max(rc/f, sim.EpsWork)
		return idx, deg, deg
	}
	itv, _ = pl.envFor(f, lam).Interval(rd, rc/f, rf)
	itv = math.Min(itv, rc/f)
	subLen = itv
	if pl.cfg.UseSub {
		subLen = itv / float64(pl.numSub(f, lam, itv))
	}
	return idx, itv, subLen
}

// pickSpeedPre is Adaptive.pickSpeed over the planner's precomputed
// TEst factors: the index of the slowest operating point with
// (rc/f)·(1+s)/(1-s) ≤ rd — the identical doubles TEst produces, since
// (1+s) and (1-s) are cached verbatim — or of the fastest point if none
// fits. The factor table is rebuilt whenever the planning λ changes
// (only online-λ schemes change it within a planner's lifetime).
func (pl *Planner) pickSpeedPre(lam, rc, rd float64) int32 {
	if lb := math.Float64bits(lam); !pl.teOK || pl.teLam != lb {
		pl.buildTE(lam, lb)
	}
	for i := range pl.te {
		e := &pl.te[i]
		if e.oneMinus > 0 && ((rc/e.freq)*e.onePlus)/e.oneMinus <= rd {
			return int32(i)
		}
	}
	return pl.maxIdx
}

// buildTE fills the TEst factor table for one planning λ. The s ≥ 1
// (and NaN) divergence TEst reports as +Inf maps to oneMinus ≤ 0, which
// pickSpeedPre treats as never-feasible — the same verdict +Inf ≤ rd
// reaches.
func (pl *Planner) buildTE(lam float64, lamBits uint64) {
	c := pl.costs.CSCPCycles()
	pl.te = pl.te[:0]
	for _, pt := range pl.model.Points() {
		s := 0.0
		if lam != 0 && c != 0 {
			s = math.Sqrt(lam * c / pt.Freq)
		}
		pl.te = append(pl.te, tePoint{freq: pt.Freq, onePlus: 1 + s, oneMinus: 1 - s})
	}
	pl.teLam, pl.teOK = lamBits, true
}

// numSub returns the optimal sub-interval count for an interval of
// length itv at frequency f under rate lam: the last answer when the
// exact (f, λ, itv) repeats, else through the pooled analysis.SubMemo
// for that (f, λ) environment, which remembers every interval length
// the environment has seen.
func (pl *Planner) numSub(f, lam, itv float64) int {
	fb, lb, ib := math.Float64bits(f), math.Float64bits(lam), math.Float64bits(itv)
	if pl.subN > 0 && pl.subF == fb && pl.subLam == lb && pl.subItv == ib {
		return pl.subN
	}
	n := pl.pooledNumSub(f, lam, fb, lb, itv)
	pl.subF, pl.subLam, pl.subItv, pl.subN = fb, lb, ib, n
	return n
}

// pooledNumSub is numSub's pool lookup, building and pooling the (f, λ)
// environment's SubMemo on first sight. Past subEnvCap environments
// (online λ) it computes directly.
func (pl *Planner) pooledNumSub(f, lam float64, fb, lb uint64, itv float64) int {
	for i := range pl.subs {
		if pl.subs[i].f == fb && pl.subs[i].lam == lb {
			return pl.subs[i].sm.NumSub(itv)
		}
	}
	ap := analysis.Params{Costs: pl.costs.Scaled(f), Lambda: lam}
	if len(pl.subs) < subEnvCap {
		sm := analysis.NewSubMemo(ap, pl.cfg.Sub)
		pl.subs = append(pl.subs, subEnv{f: fb, lam: lb, sm: sm})
		return sm.NumSub(itv)
	}
	return analysis.NumSub(ap, pl.cfg.Sub, itv)
}

// envFor returns the policy.Env for one (frequency, λ) pair: the last
// one planned when the pair repeats, else from the pool, building and
// pooling it on first sight. The pool shares subEnvCap: an online-λ
// scheme that overflows it builds the env per new pair, which is
// exactly the un-pooled Interval cost.
func (pl *Planner) envFor(f, lam float64) *policy.Env {
	fb, lb := math.Float64bits(f), math.Float64bits(lam)
	if pl.envOK && pl.envF == fb && pl.envLam == lb {
		return &pl.env
	}
	pl.env = pl.pooledEnv(f, lam, fb, lb)
	pl.envOK, pl.envF, pl.envLam = true, fb, lb
	return &pl.env
}

// pooledEnv is envFor's pool lookup.
func (pl *Planner) pooledEnv(f, lam float64, fb, lb uint64) policy.Env {
	for i := range pl.envs {
		if pl.envs[i].f == fb && pl.envs[i].lam == lb {
			return pl.envs[i].env
		}
	}
	env := policy.NewEnv(pl.costs.CSCPCycles()/f, lam)
	if len(pl.envs) < subEnvCap {
		pl.envs = append(pl.envs, itvEnv{f: fb, lam: lb, env: env})
	}
	return env
}

// plannerFor returns the planner for the scheme over p's platform: ctx's
// current planner when its configuration matches, else a new one that
// replaces it in ctx's scratch slot. ctx may be nil (the plain
// uncontexted Run path), in which case the planner is the run's own.
func (s *Adaptive) plannerFor(ctx *sim.RunContext, p sim.Params) *Planner {
	model := p.CPUModel()
	if ctx == nil {
		return NewPlanner(*s, model, p.Costs, p.Task)
	}
	old, _ := ctx.Scratch().(*Planner)
	if old != nil && old.cfg == *s && old.model == model && old.costs == p.Costs && old.task == p.Task {
		return old
	}
	pl := NewPlanner(*s, model, p.Costs, p.Task)
	if old != nil {
		pl.plans = old.plans
	}
	ctx.SetScratch(pl)
	return pl
}

// PlansComputed reports how many plans the adaptive schemes computed
// through ctx over its lifetime, on the scalar and the batch path
// alike; a context that never ran an adaptive scheme reports zero. The
// caller owns delta bookkeeping: the total is monotonic for a fixed
// context.
func PlansComputed(ctx *sim.RunContext) uint64 {
	if pl, ok := ctx.Scratch().(*Planner); ok {
		return pl.plans
	}
	return 0
}
