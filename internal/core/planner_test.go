package core

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/policy"
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

// contextPlanner returns the planner parked in rctx, failing the test
// when there is none.
func contextPlanner(t *testing.T, rctx *sim.RunContext) *Planner {
	t.Helper()
	pl, ok := rctx.Scratch().(*Planner)
	if !ok || pl == nil {
		t.Fatal("no planner in context scratch")
	}
	return pl
}

// TestPlannerMemoHitsFaultFree pins the planner economics a cell runs
// on: fault-free repetitions of one cell reuse the context's planner —
// one per cell, never rebuilt per repetition — compute exactly one plan
// each (the initial one; no fault, no replan), and share one pooled
// (f, λ) environment.
func TestPlannerMemoHitsFaultFree(t *testing.T) {
	s := NewAdaptDVSSCP()
	p := params(0.78, 1, 0, 5, checkpoint.SCPSetting()) // λ=0: no faults, no replans
	rctx := sim.NewRunContext()
	const reps = 50
	var first *Planner
	for seed := uint64(1); seed <= reps; seed++ {
		s.RunCtx(rctx, p, rctx.Reseed(seed))
		pl := contextPlanner(t, rctx)
		if first == nil {
			first = pl
		} else if pl != first {
			t.Fatalf("seed %d: one cell rebuilt its planner", seed)
		}
	}
	if got := PlansComputed(rctx); got != reps {
		t.Errorf("fault-free cell computed %d plans over %d reps, want one each", got, reps)
	}
	if len(first.envs) != 1 || len(first.subs) != 1 {
		t.Errorf("fault-free cell pooled %d interval / %d NumSub environments, want 1 / 1",
			len(first.envs), len(first.subs))
	}
}

// TestPlannerBadFixedFrequency pins the construction-time resolution of
// an unsatisfiable fixed-speed configuration, for a single-run planner
// and a context planner alike.
func TestPlannerBadFixedFrequency(t *testing.T) {
	p := params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
	s := &Adaptive{Sub: checkpoint.SCP, UseSub: true, FixedFreq: 3}
	for _, pl := range []*Planner{
		NewPlanner(*s, cpu.TwoSpeed(), p.Costs, p.Task),
		s.plannerFor(sim.NewRunContext(), p),
	} {
		for range 2 { // a first plan, then a replan
			if pln := pl.Plan(p.Task.Cycles, p.Task.Deadline, p.Lambda, 5); pln != (Plan{BadConfig: true}) {
				t.Fatalf("frequency 3 on the two-speed model planned %+v, want BadConfig", pln)
			}
		}
	}
}

// TestPlannerScratchInvalidation: a context that served one cell must
// never hand a stale planner to a different configuration. A change of
// scheme configuration, CPU model, cost model or task each rebuilds the
// planner; an identical cell — even a different λ, which is a per-plan
// input — reuses it; and returning to the first configuration plans
// identically to a fresh run.
func TestPlannerScratchInvalidation(t *testing.T) {
	pA := params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
	threeSpeed, err := cpu.NewModel([]cpu.OperatingPoint{
		{Freq: 1, Voltage: cpu.DefaultVoltage(1)},
		{Freq: 1.5, Voltage: cpu.DefaultVoltage(1.5)},
		{Freq: 2, Voltage: cpu.DefaultVoltage(2)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	withModel, withCosts, withTask, withLambda := pA, pA, pA, pA
	withModel.CPU = threeSpeed
	withCosts.Costs = checkpoint.CCPSetting()
	withTask.Task = params(0.80, 1, 0.0014, 5, checkpoint.SCPSetting()).Task
	withLambda.Lambda = 0.0016

	base := NewAdaptDVSSCP()
	cases := []struct {
		name    string
		s       *Adaptive
		p       sim.Params
		rebuild bool
	}{
		{"scheme", NewAdaptDVSCCP(), pA, true},
		{"cpu model", base, withModel, true},
		{"costs", base, withCosts, true},
		{"task", base, withTask, true},
		{"lambda", base, withLambda, false},
	}
	for _, tc := range cases {
		rctx := sim.NewRunContext()
		base.RunCtx(rctx, pA, rctx.Reseed(1))
		plA := contextPlanner(t, rctx)
		tc.s.RunCtx(rctx, tc.p, rctx.Reseed(1))
		if rebuilt := contextPlanner(t, rctx) != plA; rebuilt != tc.rebuild {
			t.Errorf("%s change: planner rebuilt = %v, want %v", tc.name, rebuilt, tc.rebuild)
		}
		r1 := base.RunCtx(rctx, pA, rctx.Reseed(7))
		if r2 := base.Run(pA, rng.New(7)); r1 != r2 {
			t.Fatalf("%s change: returning to the first cell, RunCtx diverged: %+v vs %+v", tc.name, r1, r2)
		}
	}
}

// TestPlanCacheSwitchIsolation pins planner isolation across a context's
// configuration switches: one context alternates between two planners
// whose configurations (DVS on, fixed f2) plan the identical
// (rc, rd, λ, rf) states differently, through both the scalar Plan and
// the batch kernel's plan. Every plan must equal a fresh planner's for
// that configuration — nothing the other configuration's planner pooled
// may leak into it.
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
		differ = differ || ref[0].Plan(st.rc, st.rd, st.lam, st.rf) != ref[1].Plan(st.rc, st.rd, st.lam, st.rf)
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
				want := ref[i].Plan(st.rc, st.rd, st.lam, st.rf)
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

// TestPlannerCacheStats pins the plan ledger telemetry reads: every
// repetition of a fault-free cell computes exactly its one initial plan,
// and the context-lifetime total survives a planner rebuild on cell
// switch.
func TestPlannerCacheStats(t *testing.T) {
	rctx := sim.NewRunContext()
	if n := PlansComputed(rctx); n != 0 {
		t.Fatalf("fresh context reports %d plans, want 0", n)
	}

	s := NewAdaptDVSSCP()
	p := params(0.78, 1, 0, 5, checkpoint.SCPSetting()) // λ=0: one plan per rep
	const reps = 50
	for seed := uint64(1); seed <= reps; seed++ {
		s.RunCtx(rctx, p, rctx.Reseed(seed))
	}
	plans := PlansComputed(rctx)
	if plans != reps {
		t.Errorf("fault-free cell: %d plans, want %d", plans, reps)
	}

	// Switching cells rebuilds the planner; the total must carry over,
	// never reset.
	s2 := NewAdaptDVSCCP()
	p2 := params(0.80, 1, 0.0014, 5, checkpoint.CCPSetting())
	s2.RunCtx(rctx, p2, rctx.Reseed(1))
	if got := PlansComputed(rctx); got <= plans {
		t.Errorf("plan count went backwards across a cell switch: %d then %d", plans, got)
	}
}

// TestPlannerMemoKeys pins the one-entry memos' keys: the NumSub memo
// and the interval-environment memo answer only for the exact
// (f, λ, interval) and (f, λ) they hold. The same interval asked at the
// other frequency or rate must be computed for that environment, never
// served from the memo.
func TestPlannerMemoKeys(t *testing.T) {
	p := params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
	pl := NewPlanner(*NewAdaptDVSSCP(), p.CPUModel(), p.Costs, p.Task)
	const itv = 400.0
	envs := []struct{ f, lam float64 }{{1, 0.0014}, {2, 0.0014}, {1, 0.01}, {1, 0.0014}}
	distinct := map[int]bool{}
	for _, e := range envs {
		want := analysis.NumSub(analysis.Params{Costs: p.Costs.Scaled(e.f), Lambda: e.lam}, checkpoint.SCP, itv)
		distinct[want] = true
		if got := pl.numSub(e.f, e.lam, itv); got != want {
			t.Errorf("numSub(f=%v, λ=%v, %v) = %d, want %d", e.f, e.lam, itv, got, want)
		}
		wantItv, _ := policy.NewEnv(p.Costs.CSCPCycles()/e.f, e.lam).Interval(p.Task.Deadline, itv, 5)
		if gotItv, _ := pl.envFor(e.f, e.lam).Interval(p.Task.Deadline, itv, 5); gotItv != wantItv {
			t.Errorf("envFor(f=%v, λ=%v) interval %v, want %v", e.f, e.lam, gotItv, wantItv)
		}
	}
	if len(distinct) < 3 {
		t.Fatal("the environments share NumSub answers; the test would pin nothing")
	}
}
