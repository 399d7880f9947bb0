package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
)

// shardSeeds derives a deterministic seed/key pair set, mimicking the
// experiment layer's counter-based identities.
func shardSeeds(base uint64, n int) (seeds, keys []uint64) {
	seeds = make([]uint64, n)
	keys = make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Stream(base, i)
		keys[i] = rng.Stream(base^0xd1342543de82ef95, i)
	}
	return seeds, keys
}

// runScalarShard is the reference: n scalar context runs folded into a
// Shard, exactly as the experiment's fallback loop does.
func runScalarShard(s sim.Scheme, p sim.Params, seeds, keys []uint64) (out stats.Shard, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	rctx := sim.NewRunContext()
	for i, seed := range seeds {
		res := sim.RunScheme(rctx, s, p, rctx.Reseed(seed))
		out.ObserveRun(keys[i], res.Completed, res.SilentCorruption,
			res.Energy, res.Time, float64(res.Faults), float64(res.Switches))
	}
	return out, false
}

// runBatchShard runs the same repetitions through the batch kernel,
// with the silent-corruption column sized as the experiment layer
// sizes it. ok reports whether the scheme/params were batchable at all.
func runBatchShard(s sim.Scheme, p sim.Params, seeds, keys []uint64) (out stats.Shard, ok, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	rctx := sim.NewRunContext()
	bctx := sim.NewBatchContext()
	bctx.GrowWrong(len(seeds))
	if !sim.RunBatch(rctx, bctx, s, p, seeds) {
		return out, false, false
	}
	out.ObserveBatch(keys, bctx.Completed, bctx.Wrong, bctx.Energy, bctx.Time, bctx.Faults, bctx.Switches)
	return out, true, false
}

func mustParams(t testing.TB, u, freq, lambda float64, k int, costs checkpoint.Costs) sim.Params {
	t.Helper()
	tk, err := task.FromUtilization(fmt.Sprintf("batch-U%.2f", u), u, freq, 10000, k)
	if err != nil {
		t.Fatalf("task: %v", err)
	}
	return sim.Params{Task: tk, Costs: costs, Lambda: lambda}
}

// batchSchemes is the full batchable scheme envelope: both baselines,
// the DATE'03 comparator, both paper schemes and the fixed-speed
// adaptive variants — at both operating frequencies, plus deliberately
// bad fixed frequencies (the BadConfig path must match too) — and the
// online-λ / eager-DVS ablation variants the round-two kernel brought
// inside the envelope.
func batchSchemes() []sim.Scheme {
	return []sim.Scheme{
		NewPoissonScheme(1), NewPoissonScheme(2), NewPoissonScheme(3), // 3: bad config
		NewKFTScheme(1), NewKFTScheme(2),
		NewADTDVS(),
		NewAdaptDVSSCP(), NewAdaptDVSCCP(),
		NewAdaptSCP(1), NewAdaptSCP(2), NewAdaptSCP(3), // 3: bad config
		NewAdaptCCP(1), NewAdaptCCP(2),
		NewAdaptDVSSCP().WithOnlineLambda(0.001),
		NewAdaptDVSCCP().WithOnlineLambda(0.01),
		NewAdaptDVSSCP().WithEagerDVS(),
		NewAdaptDVSCCP().WithEagerDVS(),
		NewAdaptDVSSCP().WithOnlineLambda(0.001).WithEagerDVS(),
	}
}

// TestBatchScalarEquivalence pins the tentpole invariant: for every
// batchable scheme over a grid spanning both cost settings, both fault
// budgets, λ = 0 and the paper's rates (plus a high-λ stress point that
// forces dense replanning), with no store and under every store of
// storeSelection (the corruptible one drawing on its writes), the batch
// kernel and the scalar reference produce byte-identical stats.Shard
// payloads and identical store.Stats.
func TestBatchScalarEquivalence(t *testing.T) {
	const reps = 64
	grid := []struct {
		u, lambda float64
		k         int
		costs     checkpoint.Costs
	}{
		{0.76, 0.0014, 5, checkpoint.SCPSetting()},
		{0.82, 0.0016, 5, checkpoint.SCPSetting()},
		{0.92, 1e-4, 1, checkpoint.SCPSetting()},
		{1.00, 2e-4, 1, checkpoint.SCPSetting()},
		{0.78, 0.0014, 5, checkpoint.CCPSetting()},
		{0.95, 2e-4, 1, checkpoint.CCPSetting()},
		{0.80, 0, 5, checkpoint.SCPSetting()},    // fault-free
		{0.76, 0.01, 5, checkpoint.SCPSetting()}, // dense faults, dense replans
		{0.76, 0.01, 0, checkpoint.CCPSetting()}, // zero fault budget
	}
	for _, g := range grid {
		for sel := uint8(0); sel < storeChoices; sel++ {
			for _, s := range batchSchemes() {
				name := fmt.Sprintf("%s/U%.2f/λ%g/k%d/ts%g/store%d", s.Name(), g.u, g.lambda, g.k, g.costs.Store, sel)
				p := mustParams(t, g.u, 1, g.lambda, g.k, g.costs)
				p.Store = storeSelection(sel)
				base := rng.Stream(0xbeef, len(name)) ^ uint64(len(name))<<32
				seeds, keys := shardSeeds(base, reps)
				if err := compareStoreShards(s, p, seeds, keys); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestBatchImperfectEquivalence pins the kernels' live-draw mode: for
// every batchable scheme under imperfect fault-tolerance models that
// exercise each knob — coverage misses and silent corruption, latent
// store corruption with deep cascades and restarts, vulnerable
// checkpoint operations, a one-attempt cascade budget — storeless, over
// the default stack and over a corruptible store, the kernel and the
// scalar reference produce byte-identical shards (silent-corruption
// count included) and identical store.Stats.
func TestBatchImperfectEquivalence(t *testing.T) {
	const reps = 48
	models := []fault.Imperfection{
		{Coverage: 0.98, StoreCorruption: 0.08, CheckpointVulnerable: true},
		{Coverage: 0.5, StoreCorruption: 0.3},
		{Coverage: 0, CheckpointVulnerable: true},
		{Coverage: 1, StoreCorruption: 1, CascadeBudget: 1},
	}
	grid := []struct {
		u, lambda float64
		costs     checkpoint.Costs
	}{
		{0.78, 0.0014, checkpoint.SCPSetting()},
		{0.82, 0.004, checkpoint.CCPSetting()},
		{0.80, 0, checkpoint.SCPSetting()},
	}
	stores := []*store.Config{nil, store.DefaultConfig(4), corruptibleStore()}
	for mi, im := range models {
		for _, g := range grid {
			for si, st := range stores {
				for _, s := range batchSchemes() {
					name := fmt.Sprintf("%s/imp%d/U%.2f/λ%g/store%d", s.Name(), mi, g.u, g.lambda, si)
					p := mustParams(t, g.u, 1, g.lambda, 5, g.costs)
					im := im
					p.Imperfect, p.Store = &im, st
					seeds, keys := shardSeeds(uint64(len(name))<<8|uint64(mi), reps)
					if err := compareStoreShards(s, p, seeds, keys); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// TestBatchLambdaRebind pins the planner across a λ sweep: the rate is
// a per-plan input (the online estimator plans at continuous rates), so
// reusing one BatchContext across consecutive cells — where plannerFor
// hands back the *same* planner for every rate — must not plan with a
// previous rate's pooled TEst factors, interval environment or NumSub
// memo. This is exactly the worker-loop
// shape: one context, one planner, consecutive cells differing only
// in λ.
func TestBatchLambdaRebind(t *testing.T) {
	s := NewAdaptDVSSCP()
	rctx := sim.NewRunContext()
	bctx := sim.NewBatchContext()
	for _, lambda := range []float64{0.0014, 0.0016, 0.0014, 0.01, 0} {
		p := mustParams(t, 0.78, 1, lambda, 5, checkpoint.SCPSetting())
		seeds, keys := shardSeeds(0x10ba^math.Float64bits(lambda), 32)
		want, _ := runScalarShard(s, p, seeds, keys)
		if !sim.RunBatch(rctx, bctx, s, p, seeds) {
			t.Fatalf("λ=%g: kernel refused a batchable configuration", lambda)
		}
		var got stats.Shard
		got.ObserveRuns(keys, bctx.Completed, bctx.Energy, bctx.Time, bctx.Faults, bctx.Switches)
		if !bytes.Equal(want.AppendBinary(nil), got.AppendBinary(nil)) {
			t.Errorf("λ=%g: shard payloads differ after context reuse", lambda)
		}
	}
}

// TestBatchGateFallsBack pins the kernel envelope from both sides:
// configurations the kernel cannot reproduce bit-for-bit must refuse
// the batch (so the caller runs the scalar reference), never silently
// approximate — and a batch that can end in silent corruption must
// refuse, leaving b untouched, unless the caller sized the Wrong
// column. Everything else is inside: stores of every kind, the
// imperfect model, and the online-λ and eager-DVS ablations.
func TestBatchGateFallsBack(t *testing.T) {
	p := mustParams(t, 0.8, 1, 0.0014, 5, checkpoint.SCPSetting())
	seeds, _ := shardSeeds(1, 4)
	rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()

	for _, sch := range []sim.Scheme{NewAdaptDVSSCP(), NewPoissonScheme(1)} {
		traced := p
		traced.Trace = &sim.Trace{}
		if sim.RunBatch(rctx, bctx, sch, traced, seeds) {
			t.Errorf("%s: kernel accepted a traced run", sch.Name())
		}
		custom := p
		custom.FaultProcess = func(src *rng.Source) fault.Process { return fault.NewPoisson(p.Lambda, src) }
		if sim.RunBatch(rctx, bctx, sch, custom, seeds) {
			t.Errorf("%s: kernel accepted a custom fault process", sch.Name())
		}

		imperfect := p
		imperfect.Imperfect = &fault.Imperfection{Coverage: 0.98, StoreCorruption: 0.08}
		fresh := sim.NewBatchContext()
		fresh.Grow(len(seeds))
		for i := range fresh.Energy {
			fresh.Energy[i] = -1
		}
		if sim.RunBatch(rctx, fresh, sch, imperfect, seeds) {
			t.Errorf("%s: kernel ran an SDC-capable batch without a Wrong column", sch.Name())
		}
		if fresh.Wrong != nil || fresh.Energy[0] != -1 {
			t.Errorf("%s: a refused batch touched the context", sch.Name())
		}
		fresh.GrowWrong(len(seeds))
		if !sim.RunBatch(rctx, fresh, sch, imperfect, seeds) {
			t.Errorf("%s: kernel refused imperfect FT with a Wrong column", sch.Name())
		}

		stored := p
		stored.Store = store.DefaultConfig(4)
		if !sim.RunBatch(rctx, bctx, sch, stored, seeds) {
			t.Errorf("%s: kernel refused an invulnerable tiered store", sch.Name())
		}
		stored.Store = corruptibleStore()
		if !sim.RunBatch(rctx, bctx, sch, stored, seeds) {
			t.Errorf("%s: kernel refused a tier with write corruption", sch.Name())
		}
	}
	if !sim.RunBatch(rctx, bctx, NewAdaptDVSSCP().WithOnlineLambda(0.001), p, seeds) {
		t.Error("kernel refused online λ estimation (now inside the envelope)")
	}
	if !sim.RunBatch(rctx, bctx, NewAdaptDVSSCP().WithEagerDVS(), p, seeds) {
		t.Error("kernel refused the eager-DVS ablation (now inside the envelope)")
	}
	if !sim.RunBatch(rctx, bctx, NewAdaptDVSSCP().WithOnlineLambda(0.001).WithEagerDVS(), p, seeds) {
		t.Error("kernel refused combined online-λ + eager-DVS")
	}
}

// costedStore is a three-tier stack with write and read costs on every
// tier, a bound of five images and quasi-geometric maintenance:
// evictions, demotions, degraded recoveries and restarts all happen at
// the paper's fault rates.
func costedStore() *store.Config {
	return &store.Config{
		Tiers: []store.Tier{
			{Name: "sram", Capacity: 1, WriteCycles: 5, ReadCycles: 3},
			{Name: "nvram", Capacity: 2, WriteCycles: 40, ReadCycles: 20},
			{Name: "flash", WriteCycles: 90, ReadCycles: 70},
		},
		K:      5,
		Policy: store.PolicyQuasiGeometric,
	}
}

// corruptibleStore is costedStore with write corruption on its two
// deeper tiers: every write there draws from the repetition's stream,
// so its draws interleave with the fault arrivals even under the ideal
// fault-tolerance model.
func corruptibleStore() *store.Config {
	c := costedStore()
	c.Tiers[1].Corruption = 0.05
	c.Tiers[2].Corruption = 0.2
	return c
}

// storeChoices is the number of entries of storeSelection.
const storeChoices = 9

// storeSelection is the store axis of the equivalence fuzz: no store,
// the default NVRAM+flash stack at retention bounds 1, 2, 4, 8 and
// unbounded, that stack under evict-oldest, costedStore and
// corruptibleStore.
func storeSelection(sel uint8) *store.Config {
	switch sel % storeChoices {
	case 0:
		return nil
	case 6:
		c := store.DefaultConfig(4)
		c.Policy = store.PolicyEvictOldest
		return c
	case 7:
		return costedStore()
	case 8:
		return corruptibleStore()
	default:
		return store.DefaultConfig([]int{1, 2, 4, 8, 0}[sel%storeChoices-1])
	}
}

// imperfectSelection is the imperfection axis of the equivalence fuzz:
// detection coverage {1, 0.98, 0.5, 0} (bits 0–1), stable-storage
// corruption {0, 0.08, 1} (sel>>2 mod 3), vulnerable checkpoint
// operations (bit 4) and cascade budget {default, 1} (bit 5). Zero is
// the ideal model, so an input without the axis keeps its meaning.
func imperfectSelection(sel uint8) *fault.Imperfection {
	return &fault.Imperfection{
		Coverage:             []float64{1, 0.98, 0.5, 0}[sel&3],
		StoreCorruption:      []float64{0, 0.08, 1}[(sel>>2)%3],
		CheckpointVulnerable: sel&16 != 0,
		CascadeBudget:        int(sel>>5) & 1,
	}
}

// compareStoreShards runs the same repetitions through the scalar
// reference and the kernel with p.Store set, each counting into its own
// store.Stats, and reports any difference in the shard payloads — the
// silent-corruption count included — or the counters. A panic on both
// sides (the interval guard) is agreement.
func compareStoreShards(s sim.Scheme, p sim.Params, seeds, keys []uint64) error {
	var wantStats, gotStats store.Stats
	p.StoreStats = &wantStats
	want, wantPanic := runScalarShard(s, p, seeds, keys)
	p.StoreStats = &gotStats
	got, ok, gotPanic := runBatchShard(s, p, seeds, keys)
	switch {
	case !ok:
		return fmt.Errorf("kernel refused a batchable configuration")
	case wantPanic != gotPanic:
		return fmt.Errorf("panic mismatch: scalar=%v batch=%v", wantPanic, gotPanic)
	case wantPanic:
		return nil
	case !bytes.Equal(want.AppendBinary(nil), got.AppendBinary(nil)):
		ws, gs := want.Summary(), got.Summary()
		return fmt.Errorf("shard payloads differ\nscalar: P=%v E=%v T=%v F=%v S=%v SDC=%v\nbatch:  P=%v E=%v T=%v F=%v S=%v SDC=%v",
			ws.P, ws.E, ws.MeanTime, ws.MeanFaults, ws.MeanSwitches, ws.SDC,
			gs.P, gs.E, gs.MeanTime, gs.MeanFaults, gs.MeanSwitches, gs.SDC)
	case wantStats != gotStats:
		return fmt.Errorf("store stats differ\nscalar: %+v\nbatch:  %+v", wantStats, gotStats)
	}
	return nil
}

// TestBatchFreeStoreParity is the kernel side of the engine's
// free-store parity contract (sim's TestFreeStoreParityIdeal): an
// unlimited, zero-cost, invulnerable store reproduces the storeless
// kernel's shard bytes for every batchable scheme.
func TestBatchFreeStoreParity(t *testing.T) {
	free := &store.Config{Tiers: []store.Tier{{Name: "nvram", Capacity: 2}, {Name: "flash"}}}
	for _, lambda := range []float64{0.0014, 0.01} {
		for _, s := range batchSchemes() {
			p := mustParams(t, 0.78, 1, lambda, 5, checkpoint.SCPSetting())
			seeds, keys := shardSeeds(uint64(len(s.Name())), 48)
			want, _, wantPanic := runBatchShard(s, p, seeds, keys)
			p.Store = free
			got, ok, gotPanic := runBatchShard(s, p, seeds, keys)
			if !ok || wantPanic || gotPanic {
				t.Fatalf("%s λ=%g: batch refused or panicked (ok=%v panics %v/%v)", s.Name(), lambda, ok, wantPanic, gotPanic)
			}
			if !bytes.Equal(want.AppendBinary(nil), got.AppendBinary(nil)) {
				t.Errorf("%s λ=%g: a free store changed the kernel's shard bytes", s.Name(), lambda)
			}
		}
	}
}

// TestBatchPlannerLedger pins that batch planning flows through the
// context's plan count, so the telemetry ledger stays meaningful: a
// fault-free batch computes its hoisted initial plan once for the whole
// batch, a faulty batch adds its post-fault replans on top, and the
// static baselines plan exactly once per batch or scalar run.
func TestBatchPlannerLedger(t *testing.T) {
	seeds, _ := shardSeeds(7, 128)
	rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()
	if !sim.RunBatch(rctx, bctx, NewAdaptDVSSCP(), mustParams(t, 0.78, 1, 0, 5, checkpoint.SCPSetting()), seeds) {
		t.Fatal("kernel refused a batchable configuration")
	}
	if n := PlansComputed(rctx); n != 1 {
		t.Fatalf("fault-free batch computed %d plans, want the one hoisted initial plan", n)
	}
	if !sim.RunBatch(rctx, bctx, NewAdaptDVSSCP(), mustParams(t, 0.78, 1, 0.0016, 5, checkpoint.SCPSetting()), seeds) {
		t.Fatal("kernel refused a batchable configuration")
	}
	if n := PlansComputed(rctx); n <= 2 {
		t.Fatalf("faulty batch left the plan count at %d, want its replans counted", n)
	}

	// The static baselines never replan: one plan per batch and one per
	// scalar run, faulty or not — the property that lets them skip the
	// post-detection replan bit-exactly.
	for _, s := range []sim.Scheme{NewPoissonScheme(1), NewKFTScheme(1)} {
		for _, lambda := range []float64{0, 0.01} {
			p := mustParams(t, 0.76, 1, lambda, 5, checkpoint.SCPSetting())
			before := PlansComputed(rctx)
			if !sim.RunBatch(rctx, bctx, s, p, seeds) {
				t.Fatalf("%s λ=%g: kernel refused a batchable configuration", s.Name(), lambda)
			}
			faults := 0.0
			for _, f := range bctx.Faults[:len(seeds)] {
				faults += f
			}
			if lambda > 0 && faults == 0 {
				t.Fatalf("%s λ=%g: batch saw no faults", s.Name(), lambda)
			}
			if n := PlansComputed(rctx) - before; n != 1 {
				t.Errorf("%s λ=%g: batch computed %d plans, want 1", s.Name(), lambda, n)
			}
			for _, seed := range seeds[:16] {
				before := PlansComputed(rctx)
				res := sim.RunScheme(rctx, s, p, rctx.Reseed(seed))
				if n := PlansComputed(rctx) - before; n != 1 {
					t.Errorf("%s λ=%g seed %d: scalar run with %d faults computed %d plans, want 1",
						s.Name(), lambda, seed, res.Faults, n)
				}
			}
		}
	}
}

// FuzzBatchScalarEquivalence drives the equivalence property over
// randomized task/fault/cost/scheme/store/imperfection parameters
// (storeSel picks from storeSelection, impSel from imperfectSelection):
// whatever the fuzzer finds, batch and scalar execution must agree
// byte for byte on the stats.Shard payload and on store.Stats (or both
// panic identically).
func FuzzBatchScalarEquivalence(f *testing.F) {
	f.Add(0.8, 0.0014, uint8(5), 2.0, 20.0, 0.0, uint8(0), uint8(8), uint64(42), uint8(0), uint8(0))
	f.Add(0.92, 1e-4, uint8(1), 20.0, 2.0, 0.0, uint8(3), uint8(4), uint64(7), uint8(0), uint8(0))
	f.Add(1.0, 0.0, uint8(0), 2.0, 20.0, 5.0, uint8(5), uint8(2), uint64(1), uint8(0), uint8(0))
	f.Add(0.76, 0.02, uint8(2), 1.0, 1.0, 1.0, uint8(7), uint8(6), uint64(99), uint8(0), uint8(0))
	f.Add(0.8, 0.0014, uint8(5), 2.0, 20.0, 0.0, uint8(4), uint8(8), uint64(42), uint8(3), uint8(0))
	f.Add(0.76, 0.01, uint8(5), 20.0, 2.0, 1.0, uint8(5), uint8(12), uint64(5), uint8(1), uint8(0))
	f.Add(0.82, 0.0016, uint8(2), 2.0, 20.0, 0.0, uint8(0), uint8(9), uint64(8), uint8(7), uint8(0))
	f.Add(0.82, 0.0016, uint8(2), 2.0, 20.0, 0.0, uint8(4), uint8(9), uint64(8), uint8(8), uint8(0))
	f.Add(0.78, 0.0014, uint8(5), 2.0, 20.0, 0.0, uint8(4), uint8(15), uint64(3), uint8(0), uint8(1|1<<2|16))
	f.Add(0.8, 0.002, uint8(5), 20.0, 2.0, 1.0, uint8(0), uint8(15), uint64(4), uint8(3), uint8(2|2<<2|16|32))
	f.Add(0.9, 0.004, uint8(1), 2.0, 20.0, 0.0, uint8(5), uint8(11), uint64(6), uint8(8), uint8(3|1<<2))
	// The baselines' +imp and store cells share the adaptive kernel's
	// image-keeping loop: k-f-t(f=1) and Poisson(f=2) under non-ideal
	// models over non-empty stores.
	f.Add(0.78, 0.004, uint8(5), 2.0, 20.0, 0.0, uint8(2), uint8(15), uint64(11), uint8(8), uint8(1|1<<2|16))
	f.Add(0.76, 0.01, uint8(1), 20.0, 2.0, 1.0, uint8(1), uint8(13), uint64(12), uint8(7), uint8(2|2<<2|32))
	// The push path of E4's store columns: SCP sub-checkpoints under the
	// k = 8 and k = 2 default stacks at a high fault rate, where the
	// quasi-geometric victim, demotions, degraded recoveries and
	// restarts all happen — ideal and under E3's imperfection.
	f.Add(0.78, 0.02, uint8(5), 2.0, 20.0, 0.0, uint8(4), uint8(15), uint64(21), uint8(4), uint8(0))
	f.Add(0.78, 0.02, uint8(5), 2.0, 20.0, 0.0, uint8(4), uint8(15), uint64(22), uint8(4), uint8(1|1<<2|16))
	f.Add(0.78, 0.02, uint8(5), 2.0, 20.0, 0.0, uint8(6), uint8(15), uint64(23), uint8(2), uint8(0))
	f.Add(0.78, 0.02, uint8(5), 2.0, 20.0, 0.0, uint8(6), uint8(15), uint64(24), uint8(2), uint8(1|1<<2|16))
	f.Fuzz(func(t *testing.T, u, lambda float64, k uint8, store, compare, rollback float64, schemeSel, reps uint8, seed uint64, storeSel, impSel uint8) {
		// Sanitise into the validated-parameter envelope; the point is
		// randomized coverage inside it, not crash-hunting outside it
		// (Params.Validate guards the real entry points).
		if !(u > 0.05 && u <= 1.5) {
			t.Skip()
		}
		if math.IsNaN(lambda) || lambda < 0 || lambda > 0.05 {
			t.Skip()
		}
		// Checkpoint costs are clamped into [0.5, 100): a free store or
		// compare makes the optimal sub-interval count explode into the
		// millions (legitimately — sub-checkpoints cost nothing), which
		// turns single inputs into multi-second runs the fuzz engine
		// flags as hangs. Rollback may be zero (the paper's setting).
		clamp := func(v, lo float64) float64 {
			if !(v >= lo && v < 100) {
				return lo + math.Mod(math.Abs(v), 100-lo)
			}
			return v
		}
		costs := checkpoint.Costs{Store: clamp(store, 0.5), Compare: clamp(compare, 0.5), Rollback: clamp(rollback, 0)}
		if costs.Validate() != nil {
			t.Skip()
		}
		schemes := []sim.Scheme{
			NewPoissonScheme(1), NewPoissonScheme(2),
			NewKFTScheme(1),
			NewADTDVS(),
			NewAdaptDVSSCP(), NewAdaptDVSCCP(),
			NewAdaptSCP(1), NewAdaptCCP(2),
			NewAdaptDVSSCP().WithOnlineLambda(0.001),
			NewAdaptDVSCCP().WithOnlineLambda(0.01),
			NewAdaptDVSSCP().WithEagerDVS(),
			NewAdaptDVSSCP().WithOnlineLambda(0.001).WithEagerDVS(),
		}
		s := schemes[int(schemeSel)%len(schemes)]
		tk, err := task.FromUtilization("fuzz", u, 1, 10000, int(k%8))
		if err != nil {
			t.Skip()
		}
		// Bound the interval budget tightly: degenerate fuzzed costs can
		// yield thousands of sub-intervals per interval, and the fuzz
		// engine treats a >10s input as a hang. Both paths honour the
		// same budget, so equivalence is unaffected.
		p := sim.Params{Task: tk, Costs: costs, Lambda: lambda, MaxIntervals: 1500,
			Store: storeSelection(storeSel), Imperfect: imperfectSelection(impSel)}
		if p.Validate() != nil {
			t.Skip()
		}
		n := int(reps%16) + 1
		seeds, keys := shardSeeds(seed, n)
		if err := compareStoreShards(s, p, seeds, keys); err != nil {
			t.Fatalf("%s u=%v λ=%v k=%d costs=%+v store=%d imp=%+v: %v", s.Name(), u, lambda, k%8, costs, storeSel%storeChoices, *p.Imperfect, err)
		}
	})
}
