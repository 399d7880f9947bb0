package core

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestRunCtxMatchesRun pins the tentpole refactor's contract: running a
// scheme through a warm, reused RunContext returns results bit-identical
// to the fresh-allocation Run path, for every scheme family, across
// cells with different parameters sharing one context.
func TestRunCtxMatchesRun(t *testing.T) {
	schemes := []sim.ContextScheme{
		NewPoissonScheme(1),
		NewKFTScheme(1),
		NewADTDVS(),
		NewAdaptDVSSCP(),
		NewAdaptDVSCCP(),
		NewAdaptSCP(1),
		NewAdaptCCP(2),
		NewAdaptDVSSCP().WithOnlineLambda(0.001),
		NewAdaptDVSSCP().WithEagerDVS(),
	}
	cells := []sim.Params{
		params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting()),
		params(0.80, 1, 0.0016, 5, checkpoint.CCPSetting()),
		params(0.92, 1, 2e-4, 1, checkpoint.SCPSetting()),
		params(0.78, 1, 0, 5, checkpoint.SCPSetting()), // faultless
	}

	// One context serves every (scheme, cell) pair in sequence — the
	// worker's view — so cache reuse across cell switches is exercised.
	rctx := sim.NewRunContext()
	for _, s := range schemes {
		for ci, p := range cells {
			for seed := uint64(1); seed <= 20; seed++ {
				want := s.Run(p, rng.New(seed))
				got := s.RunCtx(rctx, p, rctx.Reseed(seed))
				if want != got {
					t.Fatalf("%s cell %d seed %d: RunCtx diverged from Run:\nfresh %+v\nctx   %+v",
						s.Name(), ci, seed, want, got)
				}
			}
		}
	}
}

// liveEntries counts the plan-cache ways holding an entry of the
// context's current planner.
func liveEntries(c *planCache) int {
	n := 0
	for i := range c.ents {
		if c.ents[i].gen == c.gen {
			n++
		}
	}
	return n
}

// TestPlannerMemoHitsFaultFree pins the cache economics the planner is
// built on: fault-free repetitions of one cell share a single plan key,
// so the planner computes once and replays.
func TestPlannerMemoHitsFaultFree(t *testing.T) {
	s := NewAdaptDVSSCP()
	p := params(0.78, 1, 0, 5, checkpoint.SCPSetting()) // λ=0: no faults, no replans
	rctx := sim.NewRunContext()
	for seed := uint64(1); seed <= 50; seed++ {
		s.RunCtx(rctx, p, rctx.Reseed(seed))
	}
	c, ok := rctx.Scratch().(*planCache)
	if !ok || c.pl == nil {
		t.Fatal("no planner in context scratch")
	}
	if c.gen != 1 {
		t.Fatalf("one cell built %d planners, want exactly 1", c.gen)
	}
	if n := liveEntries(c); n != 1 {
		t.Errorf("fault-free cell cached %d plans, want exactly 1", n)
	}
}

// TestPlannerMemoIsExactInput verifies a planner returns bit-identical
// plans for repeated inputs and distinguishes every changed input.
func TestPlannerMemoIsExactInput(t *testing.T) {
	p := params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
	rctx := sim.NewRunContext()
	pl := NewAdaptDVSSCP().plannerFor(rctx, p)

	base := pl.Plan(p.Task.Cycles, p.Task.Deadline, p.Lambda, 5)
	again := pl.Plan(p.Task.Cycles, p.Task.Deadline, p.Lambda, 5)
	if base != again {
		t.Fatalf("identical inputs, different plans: %+v vs %+v", base, again)
	}

	fresh := NewPlanner(*NewAdaptDVSSCP(), p.CPUModel(), p.Costs, p.Task)
	if got := fresh.Plan(p.Task.Cycles, p.Task.Deadline, p.Lambda, 5); got != base {
		t.Fatalf("cached plan differs from fresh computation: %+v vs %+v", base, got)
	}

	// A changed input keys separately (the plans themselves may or may
	// not coincide — the interval rules are piecewise).
	pl.Plan(p.Task.Cycles, p.Task.Deadline-1, p.Lambda, 5)
	if n := liveEntries(rctx.Scratch().(*planCache)); n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
}

// TestPlannerBadFixedFrequency pins the construction-time resolution of
// an unsatisfiable fixed-speed configuration, cached or not.
func TestPlannerBadFixedFrequency(t *testing.T) {
	p := params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
	s := &Adaptive{Sub: checkpoint.SCP, UseSub: true, FixedFreq: 3}
	for _, pl := range []*Planner{
		NewPlanner(*s, cpu.TwoSpeed(), p.Costs, p.Task),
		s.plannerFor(sim.NewRunContext(), p),
	} {
		for range 2 { // miss, then hit
			if pln := pl.Plan(p.Task.Cycles, p.Task.Deadline, p.Lambda, 5); pln != (Plan{BadConfig: true}) {
				t.Fatalf("frequency 3 on the two-speed model planned %+v, want BadConfig", pln)
			}
		}
	}
}

// TestPlannerScratchInvalidation: a context that served one cell must
// never hand a stale planner to a different scheme configuration or
// platform, and returning to the first configuration plans identically
// to a fresh run under a new generation.
func TestPlannerScratchInvalidation(t *testing.T) {
	rctx := sim.NewRunContext()
	pA := params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
	pB := params(0.80, 1, 0.0014, 5, checkpoint.CCPSetting())

	NewAdaptDVSSCP().RunCtx(rctx, pA, rctx.Reseed(1))
	c, _ := rctx.Scratch().(*planCache)
	if c == nil || c.pl == nil {
		t.Fatal("planner not parked in scratch")
	}
	plA := c.pl

	NewAdaptDVSCCP().RunCtx(rctx, pB, rctx.Reseed(1))
	if c.pl == plA {
		t.Fatal("context reused a planner across different scheme/cell configurations")
	}

	r1 := NewAdaptDVSSCP().RunCtx(rctx, pA, rctx.Reseed(7))
	r2 := NewAdaptDVSSCP().Run(pA, rng.New(7))
	if r1 != r2 {
		t.Fatalf("after scratch churn, RunCtx diverged: %+v vs %+v", r1, r2)
	}
	if c.gen != 3 || c.pl.gen != c.gen {
		t.Fatalf("three configuration switches left generation %d (planner %d), want 3", c.gen, c.pl.gen)
	}
}

// TestPlanCacheSwitchIsolation pins the generation tag: one context
// alternates between two planners whose configurations (DVS on, fixed
// f2) plan the identical (rc, rd, λ, rf) states differently, through
// both the scalar Plan and the batch kernel's plan. Every plan must
// equal that planner's own uncached compute — an entry of the other
// planner, sitting in the same set under the same state key, must
// never be served.
func TestPlanCacheSwitchIsolation(t *testing.T) {
	p := params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
	type state struct {
		rc, rd, lam float64
		rf          int
	}
	states := []state{
		{p.Task.Cycles, p.Task.Deadline, p.Lambda, 5},
		{p.Task.Cycles / 2, p.Task.Deadline * 0.6, p.Lambda, 4},
		{p.Task.Cycles / 3, p.Task.Deadline / 4, 0.01, 1},
		{p.Task.Cycles, p.Task.Deadline, 0, 0},
	}
	schemes := []*Adaptive{NewAdaptDVSSCP(), NewAdaptSCP(2)}
	ref := make([]*Planner, len(schemes))
	for i, s := range schemes {
		ref[i] = NewPlanner(*s, p.CPUModel(), p.Costs, p.Task)
	}
	differ := false
	for _, st := range states {
		differ = differ || ref[0].compute(st.rc, st.rd, st.lam, st.rf) != ref[1].compute(st.rc, st.rd, st.lam, st.rf)
	}
	if !differ {
		t.Fatal("the two configurations plan every state identically; the test would pin nothing")
	}

	rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()
	bs := batchScratch(bctx)
	bs.costs = buildSpeedCosts(bs.costs, p.CPUModel(), p.Costs)
	for round := 0; round < 3; round++ {
		for i, s := range schemes {
			pl := s.plannerFor(rctx, p)
			for _, st := range states {
				want := ref[i].compute(st.rc, st.rd, st.lam, st.rf)
				if got := pl.Plan(st.rc, st.rd, st.lam, st.rf); got != want {
					t.Fatalf("round %d %s scalar %+v: planned %+v, want %+v", round, s.Name(), st, got, want)
				}
				sc, itv, sub, bad := bs.plan(pl, st.rc, st.rd, st.lam, st.rf)
				if bad || sc.pt != want.Point || itv != want.Interval || sub != want.SubLen {
					t.Fatalf("round %d %s batch %+v: planned (%+v, %v, %v, bad=%v), want %+v",
						round, s.Name(), st, sc, itv, sub, bad, want)
				}
			}
		}
	}

	// The same alternation end to end: batched shards and scalar runs
	// interleaved on one context pair match fresh-context references.
	seeds, keys := shardSeeds(0x5717c4, 32)
	for round := 0; round < 2; round++ {
		for _, s := range schemes {
			want, _ := runScalarShard(s, p, seeds, keys)
			if !sim.RunBatch(rctx, bctx, s, p, seeds) {
				t.Fatalf("%s: kernel refused a batchable configuration", s.Name())
			}
			var got stats.Shard
			got.ObserveRuns(keys, bctx.Completed, bctx.Energy, bctx.Time, bctx.Faults, bctx.Switches)
			if !bytes.Equal(want.AppendBinary(nil), got.AppendBinary(nil)) {
				t.Fatalf("round %d %s: batched shard diverged after a planner switch", round, s.Name())
			}
			for seed := uint64(1); seed <= 8; seed++ {
				if got, want := s.RunCtx(rctx, p, rctx.Reseed(seed)), s.Run(p, rng.New(seed)); got != want {
					t.Fatalf("round %d %s seed %d: RunCtx diverged after a planner switch", round, s.Name(), seed)
				}
			}
		}
	}
}

// TestPlannerCacheStats pins the telemetry counters: fault-free
// repetitions of one cell hit the plan cache after the first miss, and
// the context-lifetime totals survive a planner rebuild on cell switch.
func TestPlannerCacheStats(t *testing.T) {
	rctx := sim.NewRunContext()
	if h, m := PlannerCacheStats(rctx); h != 0 || m != 0 {
		t.Fatalf("fresh context reports %d/%d, want 0/0", h, m)
	}

	s := NewAdaptDVSSCP()
	p := params(0.78, 1, 0, 5, checkpoint.SCPSetting()) // λ=0: one plan key per rep
	const reps = 50
	for seed := uint64(1); seed <= reps; seed++ {
		s.RunCtx(rctx, p, rctx.Reseed(seed))
	}
	hits, misses := PlannerCacheStats(rctx)
	if hits != reps-1 || misses != 1 {
		t.Errorf("fault-free cell: %d hits / %d misses, want %d / 1", hits, misses, reps-1)
	}

	// Switching cells rebuilds the planner; the totals must carry over,
	// never reset.
	s2 := NewAdaptDVSCCP()
	p2 := params(0.80, 1, 0.0014, 5, checkpoint.CCPSetting())
	s2.RunCtx(rctx, p2, rctx.Reseed(1))
	h2, m2 := PlannerCacheStats(rctx)
	if h2 < hits || m2 <= misses {
		t.Errorf("cache stats went backwards across a cell switch: %d/%d then %d/%d",
			hits, misses, h2, m2)
	}
}
