package experiment

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestTableBatchScalarEquivalence pins the tentpole invariant at the
// experiment layer: a full published grid produced through the batch
// kernels is identical — every summary bit — to the same grid forced
// through the scalar reference loop. Table 1a sweeps λ with shared
// planners and reuses worker contexts across cells, so this also
// exercises the batch plan cache's cross-cell invalidation in the
// exact shape production runs have.
func TestTableBatchScalarEquivalence(t *testing.T) {
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Runner{Reps: 16, Seed: 9, Workers: 2}.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := Runner{Reps: 16, Seed: 9, Workers: 2, DisableBatch: true}.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Rows) != len(scalar.Rows) {
		t.Fatalf("row count differs: batch %d scalar %d", len(batch.Rows), len(scalar.Rows))
	}
	for i := range batch.Rows {
		br, sr := batch.Rows[i], scalar.Rows[i]
		for j := range br.Cells {
			// Summaries of never-completing cells carry NaN conditional
			// means, so struct equality would reject identical results;
			// the shortest-round-trip formatting is exact for every
			// non-NaN float and collapses NaNs correctly.
			bs, ss := fmt.Sprintf("%+v", br.Cells[j]), fmt.Sprintf("%+v", sr.Cells[j])
			if bs != ss {
				t.Errorf("U=%v λ=%v %s:\nbatch:  %s\nscalar: %s",
					br.U, br.Lambda, br.Cells[j].Scheme, bs, ss)
			}
		}
	}
}

// benchCell times one 10k-repetition grid cell — the paper scheme at
// Table 1a's first cell — through the sharded executor, batched vs
// forced-scalar. The reps/sec metric is the number the tentpole's
// ≥2×-throughput acceptance floor tracks, isolated from grid mix.
func benchCell(b *testing.B, disable bool) {
	spec, err := TableByID("1a")
	if err != nil {
		b.Fatal(err)
	}
	schemes := spec.Schemes()
	scheme := schemes[len(schemes)-1]
	const reps = 10_000
	runner := Runner{Reps: reps, Seed: 1, DisableBatch: disable}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunCell(spec, scheme, spec.Us[0], spec.Lambdas[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	secPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) * 1e-9
	b.ReportMetric(float64(reps)/secPerOp, "reps/sec")
}

func BenchmarkCellBatch(b *testing.B)  { benchCell(b, false) }
func BenchmarkCellScalar(b *testing.B) { benchCell(b, true) }

// TestExtensionBatchScalarEquivalence pins the envelope extensions at
// the table level: the E2 λ-knowledge ablation (wrong-belief and
// online-estimator columns), E3 (the imperfect-FT columns in the
// kernels' live-draw mode beside the ideal reference) and E4 (the
// tiered-store columns and the store+imperfect column) produce
// bit-identical summaries — silent-corruption rate included — and
// identical store counters through the batch kernels and the
// forced-scalar reference loop. E3 and E4 run enough repetitions that
// silent corruption occurs, so its comparison is not vacuous.
func TestExtensionBatchScalarEquivalence(t *testing.T) {
	for _, spec := range ExtensionTables() {
		if spec.ID == "E1" {
			continue // TMR has no kernel: both runs are scalar
		}
		t.Run(spec.ID, func(t *testing.T) {
			reps := 16
			if spec.ID != "E2" {
				reps = 250
			}
			var batch Table
			checkBatchScalarTables(t, reps, func(r Runner) (Table, error) {
				tbl, err := r.RunExtensionTable(spec)
				if !r.DisableBatch {
					batch = tbl
				}
				return tbl, err
			})
			sdc := 0.0
			for _, row := range batch.Rows {
				for _, c := range row.Cells {
					sdc += c.SDC
				}
			}
			if spec.ID != "E2" && sdc == 0 {
				t.Error("no silent corruption in the imperfect-FT columns: nothing was compared")
			}
		})
	}
}

// TestStoreSpecBatchScalarEquivalence extends the table-level pin to
// published grids run under Spec.Store: tables 1a, 2a, 3a and 4b on
// the default NVRAM+flash stack at retention bounds 1, 2, 4, 8 and
// unbounded, every column (baselines included) through the kernels.
func TestStoreSpecBatchScalarEquivalence(t *testing.T) {
	for _, id := range []string{"1a", "2a", "3a", "4b"} {
		for _, k := range []int{1, 2, 4, 8, 0} {
			spec, err := TableByID(id)
			if err != nil {
				t.Fatal(err)
			}
			spec.Store = store.DefaultConfig(k)
			t.Run(fmt.Sprintf("%s/k%d", id, k), func(t *testing.T) {
				reg := checkBatchScalarTables(t, 16, func(r Runner) (Table, error) { return r.RunTable(spec) })
				if reg.Counter(MetricStoreTierWrites(0), "").Value() == 0 || reg.Counter(MetricStoreRecoveries, "").Value() == 0 {
					t.Error("the store never wrote or never recovered: nothing was compared")
				}
			})
		}
	}
}

// checkBatchScalarTables runs a table at reps repetitions per cell
// through the kernels and through the forced-scalar loop and compares
// every cell summary (the silent-corruption rate and its interval bit
// for bit) and every store counter, and checks that the forced-scalar
// run counts every shard as scalar. It returns the batch run's
// registry.
func checkBatchScalarTables(t *testing.T, reps int, run func(Runner) (Table, error)) *telemetry.Registry {
	t.Helper()
	var tables [2]Table
	var regs [2]*telemetry.Registry
	for i, disable := range []bool{false, true} {
		regs[i] = telemetry.NewRegistry()
		tbl, err := run(Runner{Reps: reps, Seed: 11, Workers: 2, DisableBatch: disable,
			Sink: telemetry.NewRegistrySink(regs[i], nil)})
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl
	}
	batch, scalar := tables[0], tables[1]
	if len(batch.Rows) != len(scalar.Rows) {
		t.Fatalf("row count differs: batch %d scalar %d", len(batch.Rows), len(scalar.Rows))
	}
	for i := range batch.Rows {
		br, sr := batch.Rows[i], scalar.Rows[i]
		for j := range br.Cells {
			bs, ss := fmt.Sprintf("%+v", br.Cells[j]), fmt.Sprintf("%+v", sr.Cells[j])
			if bs != ss {
				t.Errorf("U=%v λ=%v %s:\nbatch:  %s\nscalar: %s",
					br.U, br.Lambda, br.Cells[j].Scheme, bs, ss)
			}
			bc, sc := br.Cells[j], sr.Cells[j]
			if math.Float64bits(bc.SDC) != math.Float64bits(sc.SDC) || math.Float64bits(bc.SDCCI) != math.Float64bits(sc.SDCCI) {
				t.Errorf("U=%v λ=%v %s: SDC batch %v±%v, scalar %v±%v",
					br.U, br.Lambda, bc.Scheme, bc.SDC, bc.SDCCI, sc.SDC, sc.SDCCI)
			}
		}
	}
	if all, scalar := regs[1].Counter(MetricShards, "").Value(), regs[1].Counter(MetricShardsScalar, "").Value(); all == 0 || scalar != all {
		t.Errorf("DisableBatch: %s = %d of %s = %d, want every shard", MetricShardsScalar, scalar, MetricShards, all)
	}
	for _, name := range StoreCounterNames() {
		if b, s := regs[0].Counter(name, "").Value(), regs[1].Counter(name, "").Value(); b != s {
			t.Errorf("%s: batch %d, scalar %d", name, b, s)
		}
	}
	return regs[0]
}

// TestEagerBatchScalarEquivalence pins the eager-DVS ablation (and its
// combination with online estimation) cell-for-cell against the scalar
// reference — the schemes the governor-idealisation benchmarks run,
// likewise scalar-only before the round-two kernel.
func TestEagerBatchScalarEquivalence(t *testing.T) {
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []sim.Scheme{
		core.NewAdaptDVSSCP().WithEagerDVS(),
		core.NewAdaptDVSCCP().WithEagerDVS(),
		core.NewAdaptDVSSCP().WithOnlineLambda(0.001).WithEagerDVS(),
	}
	cells := [][2]float64{{0.76, 0.0014}, {0.82, 0.0016}, {0.80, 0}}
	for _, s := range schemes {
		for _, c := range cells {
			b, err := Runner{Reps: 32, Seed: 5}.RunCell(spec, s, c[0], c[1])
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Runner{Reps: 32, Seed: 5, DisableBatch: true}.RunCell(spec, s, c[0], c[1])
			if err != nil {
				t.Fatal(err)
			}
			bs, ss := fmt.Sprintf("%+v", b), fmt.Sprintf("%+v", sc)
			if bs != ss {
				t.Errorf("%s U=%v λ=%v:\nbatch:  %s\nscalar: %s", s.Name(), c[0], c[1], bs, ss)
			}
		}
	}
}

// TestAblationCellsNeverFallBack pins the zero-scalar-fallback
// acceptance criterion: sim.RunBatch must accept the online-λ and
// eager-DVS ablation columns on their production cell parameters, so no
// shard of an E-table run drops to the scalar loop.
func TestAblationCellsNeverFallBack(t *testing.T) {
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.CellParams(0.78, 0.0014)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []sim.Scheme{
		core.NewAdaptDVSSCP().WithOnlineLambda(0.001),
		core.NewAdaptDVSSCP().WithEagerDVS(),
		core.NewAdaptDVSSCP().WithOnlineLambda(0.001).WithEagerDVS(),
		misbelievingScheme{factor: 0.1},
		misbelievingScheme{factor: 0.1, online: true},
	}
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = mix(42, i)
	}
	rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()
	for _, s := range schemes {
		if !sim.RunBatch(rctx, bctx, s, p, seeds) {
			t.Errorf("%s: fell back to the scalar loop on production cell parameters", s.Name())
		}
	}
}

// TestStoreCellsNeverFallBack pins E4's store columns inside the kernel
// envelope on production cell parameters: the three store-only columns
// — the paper scheme over store.DefaultConfig(8), (4) and (2) — on any
// context, and the store+imperfect-FT column on a context whose Wrong
// column is sized (and on no other: it can end in silent corruption).
func TestStoreCellsNeverFallBack(t *testing.T) {
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.CellParams(0.78, 0.0014)
	if err != nil {
		t.Fatal(err)
	}
	schemes, err := ExtensionSchemes("E4")
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = mix(42, i)
	}
	rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()
	for _, s := range schemes[1:4] {
		if !sim.RunBatch(rctx, bctx, s, p, seeds) {
			t.Errorf("%s: fell back to the scalar loop on production cell parameters", s.Name())
		}
	}
	s := schemes[4]
	if sim.RunBatch(rctx, bctx, s, p, seeds) {
		t.Errorf("%s: the kernel ran an imperfect-FT batch without a Wrong column", s.Name())
	}
	bctx.GrowWrong(len(seeds))
	if !sim.RunBatch(rctx, bctx, s, p, seeds) {
		t.Errorf("%s: fell back to the scalar loop with a Wrong column", s.Name())
	}
}

// TestImperfectCellsNeverFallBack pins the whole of E2, E3 and E4
// inside the kernels through the runner's own ledger: no shard of those
// tables runs the scalar loop. E1's TMR_DVS column has no kernel, so
// its shards — and only those — count as scalar.
func TestImperfectCellsNeverFallBack(t *testing.T) {
	const reps, shard = 40, 16
	for _, spec := range ExtensionTables() {
		reg := telemetry.NewRegistry()
		r := Runner{Reps: reps, Seed: 3, Workers: 2, ShardSize: shard, Sink: telemetry.NewRegistrySink(reg, nil)}
		if _, err := r.RunExtensionTable(spec); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if spec.ID == "E1" {
			want = int64(len(spec.Us)*len(spec.Lambdas)) * ((reps + shard - 1) / shard)
		}
		scalar, all := reg.Counter(MetricShardsScalar, "").Value(), reg.Counter(MetricShards, "").Value()
		if all == 0 || scalar != want {
			t.Errorf("%s: %d of %d shards ran the scalar loop, want %d", spec.ID, scalar, all, want)
		}
	}
}

// TestWarmContextRerunBitStable pins context reuse across RunTable
// calls: worker contexts are pooled to save their allocations only, so
// a re-run may execute on a context whose plan cache still holds the
// previous run's entries — and must still produce the identical table,
// bit for bit, run after run.
func TestWarmContextRerunBitStable(t *testing.T) {
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Reps: 12, Seed: 3}
	first, err := r.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%+v", first.Rows)
	for round := 2; round <= 3; round++ {
		again, err := r.RunTable(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", again.Rows); got != want {
			t.Fatalf("run %d diverged from run 1 with warm pooled contexts:\nfirst: %.200s\nagain: %.200s",
				round, want, got)
		}
	}
}
