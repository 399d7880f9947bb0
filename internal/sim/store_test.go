package sim

import (
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/store"
)

// freeStore is an unlimited, zero-cost, invulnerable two-tier store: the
// configuration the bit-compatibility contract says must reproduce the
// storeless engine exactly.
func freeStore() *store.Config {
	return &store.Config{
		Tiers: []store.Tier{
			{Name: "nvram", Capacity: 2},
			{Name: "flash", Capacity: 0}, // unlimited last tier
		},
	}
}

// tightStore is a constrained, costed, fallible stack for the degraded
// paths: k images total, per-tier costs, corruption on the slow tier.
func tightStore(k int, corruption float64, policy string) *store.Config {
	return &store.Config{
		Tiers: []store.Tier{
			{Name: "nvram", Capacity: 1, WriteCycles: 5, ReadCycles: 3},
			{Name: "flash", Capacity: k, WriteCycles: 40, ReadCycles: 20, Corruption: corruption},
		},
		K:      k,
		Policy: policy,
	}
}

func TestStoreParamsValidate(t *testing.T) {
	p := params(0.60, 1, 0.002, 5, checkpoint.SCPSetting())
	p.Store = &store.Config{} // no tiers
	if err := p.Validate(); err == nil {
		t.Fatal("tierless store config accepted")
	}
	p.Store = freeStore()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeStoreParityIdeal pins the contract that an unlimited zero-cost
// store reproduces the storeless ideal trajectories bit for bit, across
// both sub-checkpoint flavours and the single-span path.
func TestFreeStoreParityIdeal(t *testing.T) {
	schemes := []fixedScheme{
		{itv: 500, m: 5, sub: checkpoint.SCP},
		{itv: 500, m: 4, sub: checkpoint.CCP},
		{itv: 400, m: 1, sub: checkpoint.SCP},
	}
	for _, lambda := range []float64{0.0005, 0.002, 0.01} {
		for _, s := range schemes {
			base := params(0.60, 1, lambda, 5, checkpoint.SCPSetting())
			withStore := base
			withStore.Store = freeStore()
			for seed := uint64(0); seed < 25; seed++ {
				a := s.Run(base, rng.New(seed))
				b := s.Run(withStore, rng.New(seed))
				if a != b {
					t.Fatalf("λ=%v m=%d sub=%v seed %d: free store diverged:\n %+v\n %+v",
						lambda, s.m, s.sub, seed, a, b)
				}
			}
		}
	}
}

// TestFreeStoreParityImperfect extends the parity contract to the
// imperfect-FT path: a free tiered store must consume the same
// randomness and charge the same costs as the paper store a storeless
// imperfect run keeps its images in.
func TestFreeStoreParityImperfect(t *testing.T) {
	schemes := []fixedScheme{
		{itv: 500, m: 5, sub: checkpoint.SCP},
		{itv: 500, m: 4, sub: checkpoint.CCP},
	}
	ims := []fault.Imperfection{
		{Coverage: 1, StoreCorruption: 0.4},
		{Coverage: 0.8, StoreCorruption: 0.3, CheckpointVulnerable: true},
		{Coverage: 1, StoreCorruption: 1, CascadeBudget: 2},
	}
	for _, im := range ims {
		for _, s := range schemes {
			base := imperfectParams(0.004, im)
			withStore := base
			withStore.Store = freeStore()
			for seed := uint64(0); seed < 25; seed++ {
				a := s.Run(base, rng.New(seed))
				b := s.Run(withStore, rng.New(seed))
				if a != b {
					t.Fatalf("im=%+v m=%d sub=%v seed %d: free store diverged:\n %+v\n %+v",
						im, s.m, s.sub, seed, a, b)
				}
			}
		}
	}
}

// TestStoreRollbackDepthBoundedByK: a recovery can never examine more
// images than the retention bound holds.
func TestStoreRollbackDepthBoundedByK(t *testing.T) {
	for _, policy := range []string{store.PolicyEvictOldest, store.PolicyQuasiGeometric} {
		for _, k := range []int{1, 2, 3, 5} {
			s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
			p := params(0.60, 1, 0.01, 50, checkpoint.SCPSetting())
			p.Store = tightStore(k, 0.5, policy)
			var st store.Stats
			p.StoreStats = &st
			for seed := uint64(0); seed < 30; seed++ {
				s.Run(p, rng.New(seed))
			}
			if st.Recoveries == 0 {
				t.Fatalf("policy %s k=%d: no recoveries observed at λ=0.01", policy, k)
			}
			bound := p.Store.Bound()
			for b := bound; b < store.DepthBuckets; b++ {
				if st.Depth[b] != 0 {
					t.Fatalf("policy %s k=%d: %d recoveries at depth %d > bound %d",
						policy, k, st.Depth[b], b+1, bound)
				}
			}
		}
	}
}

// TestStoreRecoveryCases drives the recovery walk directly through the
// engine and pins the restart discipline: restart-from-scratch happens
// exactly when the set holds nothing usable and the rollback target is
// not the task origin.
func TestStoreRecoveryCases(t *testing.T) {
	newEng := func() *Engine {
		p := params(0.60, 1, 0.002, 5, checkpoint.SCPSetting())
		p.Store = tightStore(4, 0, store.PolicyEvictOldest)
		return NewEngine(p, rng.New(1))
	}

	t.Run("empty set at origin is not a restart", func(t *testing.T) {
		e := newEng()
		kept := e.recoverStoreIdeal(0, 0)
		if kept != 0 || e.restarts != 0 {
			t.Fatalf("kept=%v restarts=%d; want 0, 0", kept, e.restarts)
		}
	})

	t.Run("empty set past origin restarts", func(t *testing.T) {
		e := newEng()
		kept := e.recoverStoreIdeal(1000, 0)
		if kept != -1000 || e.restarts != 1 || e.led.stats.Restarts != 1 {
			t.Fatalf("kept=%v restarts=%d; want -1000, 1", kept, e.restarts)
		}
	})

	t.Run("all images unusable restarts", func(t *testing.T) {
		e := newEng()
		e.pushImage(400, true) // diverged
		pushCorrupted(e, 800)
		kept := e.recoverStoreIdeal(1000, 0)
		if kept != -1000 || e.restarts != 1 {
			t.Fatalf("kept=%v restarts=%d; want -1000, 1", kept, e.restarts)
		}
		if e.corruptRestores != 1 {
			t.Fatalf("corruptRestores=%d; want 1 failed attempt", e.corruptRestores)
		}
		if len(e.led.Images()) != 0 {
			t.Fatalf("set not cleared on restart: %d images", len(e.led.Images()))
		}
	})

	t.Run("surviving target returns analytic kept exactly", func(t *testing.T) {
		e := newEng()
		e.pushImage(700, false)
		idealKept := 0.3000000000000004 // deliberately dusty
		kept := e.recoverStoreIdeal(699.7, idealKept)
		if kept != idealKept {
			t.Fatalf("kept=%v; want the analytic value %v bit for bit", kept, idealKept)
		}
		if e.restarts != 0 || e.led.stats.Recoveries != 1 {
			t.Fatalf("restarts=%d recoveries=%d", e.restarts, e.led.stats.Recoveries)
		}
	})

	t.Run("evicted target degrades to older image", func(t *testing.T) {
		e := newEng()
		e.pushImage(400, false)
		pushCorrupted(e, 800) // newest (the analytic target) is corrupted
		kept := e.recoverStoreIdeal(1000, 0)
		if want := 400.0 - 1000.0; kept != want {
			t.Fatalf("kept=%v; want %v (re-execute from the older image)", kept, want)
		}
		if e.restarts != 0 || e.corruptRestores != 1 {
			t.Fatalf("restarts=%d corruptRestores=%d; want 0, 1", e.restarts, e.corruptRestores)
		}
		if len(e.led.Images()) != 1 || e.led.Images()[0].Work != 400 {
			t.Fatalf("stale images not truncated: %+v", e.led.Images())
		}
	})
}

// pushCorrupted pushes a non-diverged image at work and marks it
// silently damaged.
func pushCorrupted(e *Engine, work float64) {
	e.pushImage(work, false)
	e.led.markCorrupted(len(e.led.Images()) - 1)
}

// TestStoreChargesCosts: tier write/read cycles show up in the wall
// clock — a costed store makes runs strictly slower than a free one.
func TestStoreChargesCosts(t *testing.T) {
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
	base := params(0.60, 1, 0.002, 5, checkpoint.SCPSetting())
	free := base
	free.Store = freeStore()
	costed := base
	costed.Store = &store.Config{
		Tiers: []store.Tier{{Name: "flash", Capacity: 0, WriteCycles: 10, ReadCycles: 5}},
	}
	slower := 0
	for seed := uint64(0); seed < 20; seed++ {
		a := s.Run(free, rng.New(seed))
		b := s.Run(costed, rng.New(seed))
		if !a.Completed || !b.Completed {
			// A costed run may bail infeasible where the free one
			// completes; wall clocks are only comparable on completion.
			continue
		}
		if b.Time <= a.Time {
			t.Fatalf("seed %d: costed store not slower (%v <= %v)", seed, b.Time, a.Time)
		}
		slower++
	}
	if slower == 0 {
		t.Fatal("no completed pair to compare at λ=0.002")
	}
}

// TestStoreDeterminism: a constrained fallible store is still a pure
// function of the seed.
func TestStoreDeterminism(t *testing.T) {
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
	p := params(0.60, 1, 0.01, 50, checkpoint.SCPSetting())
	p.Store = tightStore(3, 0.5, store.PolicyQuasiGeometric)
	for seed := uint64(0); seed < 10; seed++ {
		a := s.Run(p, rng.New(seed))
		b := s.Run(p, rng.New(seed))
		if a != b {
			t.Fatalf("seed %d: store runs nondeterministic:\n %+v\n %+v", seed, a, b)
		}
	}
}

// TestStoreImperfectRestartsTerminate: bounded store + total store
// corruption under the imperfect model must still terminate (restart
// discipline) and count restarts.
func TestStoreImperfectRestartsTerminate(t *testing.T) {
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
	p := imperfectParams(0.002, fault.Imperfection{Coverage: 1, StoreCorruption: 1})
	p.Store = tightStore(3, 0, store.PolicyEvictOldest)
	var st store.Stats
	p.StoreStats = &st
	sawRestart := false
	for seed := uint64(0); seed < 50; seed++ {
		r := s.Run(p, rng.New(seed))
		if r.Reason == FailGuard {
			t.Fatalf("seed %d: run did not terminate", seed)
		}
		if r.Restarts > 0 {
			sawRestart = true
		}
	}
	if !sawRestart || st.Restarts == 0 {
		t.Fatal("no restart observed with every record corrupted")
	}
	if st.Recoveries == 0 {
		t.Fatal("no recoveries counted")
	}
}

// runFixedReused mirrors fixedScheme.Run on a reused engine (Reset
// instead of NewEngine).
func runFixedReused(e *Engine, s fixedScheme, p Params, src *rng.Source) Result {
	e.Reset(p, src)
	rc := p.Task.Cycles
	for i := 0; i < p.MaxIntervalBudget(); i++ {
		if rc > p.Task.Deadline-e.Now() {
			return e.Finish(false, FailInfeasible)
		}
		cur := math.Min(s.itv, rc)
		kept, _ := e.RunInterval(cur, s.m, s.sub, p.Task.Cycles-rc)
		rc -= kept
		if rc <= EpsWork {
			if e.Now() <= p.Task.Deadline {
				return e.Finish(true, FailNone)
			}
			return e.Finish(false, FailDeadline)
		}
	}
	return e.Finish(false, FailGuard)
}

// TestStoreEngineReuse: Reset must fully rewind the set and the
// sequence tracking so reused engines match fresh ones.
func TestStoreEngineReuse(t *testing.T) {
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
	p := params(0.60, 1, 0.01, 50, checkpoint.SCPSetting())
	p.Store = tightStore(3, 0.5, store.PolicyQuasiGeometric)
	e := NewEngine(p, rng.New(0))
	for seed := uint64(0); seed < 10; seed++ {
		a := s.Run(p, rng.New(seed)) // fresh engine each run
		b := runFixedReused(e, s, p, rng.New(seed))
		if a != b {
			t.Fatalf("seed %d: reused engine diverged:\n %+v\n %+v", seed, a, b)
		}
	}
}

// TestFreeStoreStatsStayClean: under a free store the stats must show
// recoveries but no evictions, demotions into tier 0 only as configured,
// and no restarts on the ideal path (an unlimited invulnerable store
// always has the target).
func TestFreeStoreStatsStayClean(t *testing.T) {
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
	p := params(0.60, 1, 0.01, 50, checkpoint.SCPSetting())
	p.Store = freeStore()
	var st store.Stats
	p.StoreStats = &st
	for seed := uint64(0); seed < 20; seed++ {
		s.Run(p, rng.New(seed))
	}
	if st.Recoveries == 0 {
		t.Fatal("no recoveries at λ=0.01")
	}
	if st.Evictions != 0 || st.Restarts != 0 {
		t.Fatalf("free store evicted (%d) or restarted (%d)", st.Evictions, st.Restarts)
	}
	for b := 1; b < store.DepthBuckets; b++ {
		if st.Depth[b] != 0 {
			t.Fatalf("free invulnerable store walked deeper than 1 image: bucket %d = %d", b, st.Depth[b])
		}
	}
	if math.IsNaN(float64(st.TierWrites[0])) { // touch the arrays for the vet of unused fields
		t.Fatal("unreachable")
	}
	if st.TierWrites[0] == 0 || st.TierWrites[1] == 0 {
		t.Fatalf("expected writes in both tiers: %+v", st.TierWrites)
	}
	if st.Demotions == 0 {
		t.Fatal("recency cascade never demoted past the 2-slot fast tier")
	}
}
