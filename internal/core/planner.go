package core

import (
	"fmt"
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

// planSets × planWays is the context plan cache's entry count. Post-fault
// replans key on continuous (rc, rd) states and are mostly first
// sightings, so hit rate is capacity-bound: on the cold paper tables 16k
// entries hit ~74% of lookups where 2k hit ~56% and 512 ~38%. Two ways
// per set keep a recurring state resident when a colliding
// first-sighting state would otherwise evict it. At 64 bytes an entry
// the array is 1 MiB per RunContext.
const (
	planSets = 8192
	planWays = 2
)

// badConfigIdx is the planEntry.ptIdx sentinel for a BadConfig plan.
const badConfigIdx = -1

// subEnvCap bounds the pool of per-environment NumSub memos. With the
// paper's two-speed processor and a fixed λ there are at most two
// environments; online λ estimation makes the rate continuous, at which
// point pooling stops paying and the planner computes directly.
const subEnvCap = 16

// Planner computes interval plans for an Adaptive scheme: the speed
// decision (paper §3), the DATE'03 interval() procedure and the optimal
// sub-interval count of Fig. 2. A planner built for a RunContext caches
// whole plans on their exact inputs (rc, rd, λ, rf) in the context's
// plan cache — everything else a plan depends on (scheme configuration,
// CPU model, cost model, task) is fixed at construction — so the
// overwhelmingly common fault-free repetition of a Monte-Carlo cell
// plans once and replays the cached decision bit-for-bit.
//
// A Planner is not safe for concurrent use; a RunContext holds one, the
// current cell's.
type Planner struct {
	cfg   Adaptive
	model *cpu.Model
	costs checkpoint.Costs
	task  task.Task

	// Fixed-speed configuration, resolved once at construction.
	fixedPt  cpu.OperatingPoint
	fixedBad bool

	// cache is the owning context's plan cache, nil for single-run
	// planners (the uncontexted Run path), whose replans key on unique
	// states and would only pay for a cache, never hit it. gen tags this
	// planner's entries in it.
	cache *planCache
	gen   uint64

	subs []subEnv
	envs []itvEnv

	// Speed-decision precomputation: TEst(rc, f, c, λ) factors as
	// (rc/f)·(1+s)/(1-s) with s = sqrt(λ·c/f) constant per (point, λ).
	// te caches (1+s) and (1-s) per operating point for the λ it was
	// built against, so the per-plan feasibility test costs one divide,
	// one multiply and one divide instead of a sqrt chain per point.
	teLam uint64
	teOK  bool
	te    []tePoint
}

// tePoint is one operating point's precomputed TEst factors. A point
// with oneMinus ≤ 0 has s ≥ 1 (TEst = +Inf): never feasible.
type tePoint struct {
	pt       cpu.OperatingPoint
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
	pl := &Planner{
		cfg:   cfg,
		model: model,
		costs: costs,
		task:  tk,
	}
	if !cfg.DVS {
		pt, err := model.AtFreq(cfg.FixedFreq)
		if err != nil {
			pl.fixedBad = true
		} else {
			pl.fixedPt = pt
		}
	}
	return pl
}

// Plan returns the planning decision for the exact state (rc remaining
// work in cycles, rd remaining deadline in wall time, lam the planning
// fault rate, rf the remaining fault budget), from the context's plan
// cache when the state has been planned before. Caching is exact-input:
// equal bits in, bit-identical plan out.
func (pl *Planner) Plan(rc, rd, lam float64, rf int) Plan {
	if pl.cache == nil {
		return pl.compute(rc, rd, lam, rf)
	}
	e := pl.lookup(rc, rd, lam, rf)
	if e.ptIdx == badConfigIdx {
		return Plan{BadConfig: true}
	}
	return Plan{Point: pl.model.Points()[e.ptIdx], Interval: e.itv, SubLen: e.sub}
}

// compute is the uncached planning procedure — the logic previously
// inlined in Adaptive.Run, expression for expression, so the cached
// refactor stays bit-for-bit equivalent to the seed behaviour.
func (pl *Planner) compute(rc, rd, lam float64, rf int) Plan {
	s := &pl.cfg
	var pt cpu.OperatingPoint
	if s.DVS {
		// The degenerate rc ≤ 0 corner (handled below) must not reach
		// TEst, which requires non-negative work; clamping leaves every
		// rc > 0 state untouched.
		pt = pl.pickSpeedPre(lam, math.Max(rc, 0), rd)
	} else {
		if pl.fixedBad {
			return Plan{BadConfig: true}
		}
		pt = pl.fixedPt
	}
	f := pt.Freq
	if rd <= 0 || rc <= 0 {
		deg := math.Max(rc/f, sim.EpsWork)
		return Plan{Point: pt, Interval: deg, SubLen: deg}
	}
	itv, _ := pl.envFor(f, lam).Interval(rd, rc/f, rf)
	itv = math.Min(itv, rc/f)
	subLen := itv
	if s.UseSub {
		subLen = itv / float64(pl.numSub(f, lam, itv))
	}
	return Plan{Point: pt, Interval: itv, SubLen: subLen}
}

// pickSpeedPre is Adaptive.pickSpeed over the planner's precomputed
// TEst factors: the slowest operating point with
// (rc/f)·(1+s)/(1-s) ≤ rd — the identical doubles TEst produces, since
// (1+s) and (1-s) are cached verbatim — or the fastest point if none
// fits. The factor table is rebuilt whenever the planning λ changes
// (only online-λ schemes change it within a planner's lifetime).
func (pl *Planner) pickSpeedPre(lam, rc, rd float64) cpu.OperatingPoint {
	if lb := math.Float64bits(lam); !pl.teOK || pl.teLam != lb {
		pl.buildTE(lam, lb)
	}
	for i := range pl.te {
		e := &pl.te[i]
		if e.oneMinus > 0 && ((rc/e.pt.Freq)*e.onePlus)/e.oneMinus <= rd {
			return e.pt
		}
	}
	return pl.model.Max()
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
		pl.te = append(pl.te, tePoint{pt: pt, onePlus: 1 + s, oneMinus: 1 - s})
	}
	pl.teLam, pl.teOK = lamBits, true
}

// numSub returns the optimal sub-interval count for an interval of
// length itv at frequency f under rate lam, through the pooled
// analysis.SubMemo for that (f, λ) environment. Post-fault replans that
// land on a deadline-independent interval rule (e.g. the Poisson branch
// I1 = sqrt(2C/λ)) revisit the same (f, λ, itv) triple even though their
// full plan keys differ — this second-level cache catches those.
func (pl *Planner) numSub(f, lam, itv float64) int {
	fb, lb := math.Float64bits(f), math.Float64bits(lam)
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

// envFor returns the policy.Env for one (frequency, λ) pair, building
// and pooling it on first sight. The pool shares subEnvCap: an
// online-λ scheme that overflows it falls back to building the env per
// plan, which is exactly the un-pooled Interval cost.
func (pl *Planner) envFor(f, lam float64) *policy.Env {
	fb, lb := math.Float64bits(f), math.Float64bits(lam)
	for i := range pl.envs {
		if pl.envs[i].f == fb && pl.envs[i].lam == lb {
			return &pl.envs[i].env
		}
	}
	env := policy.NewEnv(pl.costs.CSCPCycles()/f, lam)
	if len(pl.envs) < subEnvCap {
		pl.envs = append(pl.envs, itvEnv{f: fb, lam: lb, env: env})
		return &pl.envs[len(pl.envs)-1].env
	}
	return &env
}

// planCache is a RunContext's exact-input plan cache, shared by the
// scalar engine (Planner.Plan) and the batch kernel (batchState.plan)
// through Planner.lookup. It holds one planner, the current cell's: a
// configuration change builds a new planner under a fresh generation, so
// the previous cell's entries can never hit again and need no clearing.
// hits/misses are plain fields, not atomics: a context is
// single-goroutine, and the increment must cost nothing against the
// few-instruction hit it measures. ents comes first: the cache is one
// large, page-aligned allocation, so every 64-byte entry then sits on
// one cache line (a header in front would split each entry over two).
type planCache struct {
	ents         [planSets * planWays]planEntry
	pl           *Planner
	gen          uint64
	hits, misses uint64
}

// planEntry is one cache way, packed into a single 64-byte cache line:
// the exact (rc, rd, λ, rf) state bits, the generation of the planner
// that computed it (zero, never issued, marks an empty way), the planned
// interval lengths, and the operating point as an index into
// model.Points() — the batch kernel's speedCosts index — or
// badConfigIdx.
type planEntry struct {
	rc, rd, lam uint64
	rf          int64
	gen         uint64
	itv, sub    float64
	ptIdx       int32
	_           int32
}

// planSet hashes a planning state to its cache set with a few multiplies.
func planSet(rc, rd, lam uint64, rf int64) uint64 {
	h := rc*0x9e3779b97f4a7c15 ^ rd*0xbf58476d1ce4e5b9 ^ lam*0x94d049bb133111eb ^ uint64(rf)
	h ^= h >> 29
	h *= 0xff51afd7ed558ccd
	return (h >> 33) & (planSets - 1)
}

// lookup returns the cache entry holding pl's plan for the exact state
// (rc, rd, λ, rf), computing and inserting it on a miss; the entry is
// valid until the next lookup. Way 0 holds proven-reused entries (a
// way-1 hit promotes by swap), so the repeat path stays one compare. A
// miss fills way 0 when it holds no live entry of pl's and otherwise
// overwrites way 1 — never displacing a reused entry for a first
// sighting. pl must have a cache.
func (pl *Planner) lookup(rc, rd, lam float64, rf int) *planEntry {
	c := pl.cache
	rcb, rdb, lb, rfb := math.Float64bits(rc), math.Float64bits(rd), math.Float64bits(lam), int64(rf)
	base := planSet(rcb, rdb, lb, rfb) * planWays
	ent := &c.ents[base]
	if ent.rc == rcb && ent.rd == rdb && ent.lam == lb && ent.rf == rfb && ent.gen == pl.gen {
		c.hits++
		return ent
	}
	alt := &c.ents[base+1]
	if alt.rc == rcb && alt.rd == rdb && alt.lam == lb && alt.rf == rfb && alt.gen == pl.gen {
		*ent, *alt = *alt, *ent
		c.hits++
		return ent
	}
	c.misses++
	p := pl.compute(rc, rd, lam, rf)
	idx := int32(badConfigIdx)
	if !p.BadConfig {
		idx = pl.pointIdx(p.Point)
	}
	if ent.gen != pl.gen {
		alt = ent
	}
	*alt = planEntry{rc: rcb, rd: rdb, lam: lb, rf: rfb, gen: pl.gen, itv: p.Interval, sub: p.SubLen, ptIdx: idx}
	return alt
}

// pointIdx returns pt's index in the planner's model.Points(). Every
// point compute plans comes from that list.
func (pl *Planner) pointIdx(pt cpu.OperatingPoint) int32 {
	for i, q := range pl.model.Points() {
		if q == pt {
			return int32(i)
		}
	}
	panic(fmt.Sprintf("core: operating point %+v missing from the CPU model", pt))
}

// plannerFor returns the planner for the scheme over p's platform: ctx's
// current planner when its configuration matches, else a new one bound
// to ctx's plan cache under a fresh generation. ctx may be nil (the
// plain uncontexted Run path), in which case the planner computes every
// plan directly.
func (s *Adaptive) plannerFor(ctx *sim.RunContext, p sim.Params) *Planner {
	model := p.CPUModel()
	if ctx == nil {
		return NewPlanner(*s, model, p.Costs, p.Task)
	}
	c, ok := ctx.Scratch().(*planCache)
	if !ok {
		c = new(planCache)
		ctx.SetScratch(c)
	}
	if pl := c.pl; pl != nil && pl.cfg == *s && pl.model == model && pl.costs == p.Costs && pl.task == p.Task {
		return pl
	}
	c.gen++ // generations start at 1: empty ways never match
	c.pl = NewPlanner(*s, model, p.Costs, p.Task)
	c.pl.cache, c.pl.gen = c, c.gen
	return c.pl
}

// PlannerCacheStats reports the plan-cache hit/miss totals accumulated
// over ctx's lifetime by both the scalar and the batch path. Contexts
// that never ran an adaptive scheme report zeros. The caller owns delta
// bookkeeping: the totals are monotonic for a fixed context.
func PlannerCacheStats(ctx *sim.RunContext) (hits, misses uint64) {
	if c, ok := ctx.Scratch().(*planCache); ok {
		return c.hits, c.misses
	}
	return 0, 0
}
