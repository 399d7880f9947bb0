// Package experiment defines and runs the paper's evaluation grid:
// Tables 1–4, each with sub-tables (a) k=5 and (b) k=1, reporting the
// probability of timely completion P and the energy E for four schemes
// per cell, over repeated Monte-Carlo executions.
//
// The published values are embedded (paperdata.go) so every run can print
// paper-vs-measured deltas, which is what EXPERIMENTS.md records.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/telemetry"
)

// Deadline is D, fixed to 10000 minimum-speed cycles across the paper's
// evaluation.
const Deadline = 10000

// DefaultReps is the paper's repetition count per cell.
const DefaultReps = 10000

// Spec describes one sub-table of the evaluation.
type Spec struct {
	// ID is the paper's label, e.g. "1a".
	ID string
	// Title is a human-readable description.
	Title string
	// Costs is the checkpoint cost model (SCP or CCP setting).
	Costs checkpoint.Costs
	// K is the fault budget (5 for (a) sub-tables, 1 for (b)).
	K int
	// BaselineFreq is the fixed speed of the Poisson / k-f-t baselines;
	// task utilisation is computed against it (U = N/(BaselineFreq·D)).
	BaselineFreq float64
	// Us and Lambdas span the grid.
	Us      []float64
	Lambdas []float64
	// AdaptiveSub is the flavour of the paper scheme's additional
	// checkpoints: SCP for Tables 1–2, CCP for Tables 3–4.
	AdaptiveSub checkpoint.Kind
	// Store, when non-nil, runs every cell under the tiered checkpoint
	// store model (bounded retention, tier costs, fallible media — see
	// internal/store). Nil keeps the paper's free infinite store: every
	// published table runs with Store nil and is bit-identical to the
	// seed. The config is part of the cell's semantics, so remote
	// executors receive it inside the unit request and the cluster job
	// key hashes it.
	Store *store.Config
}

// Schemes instantiates the four columns of the sub-table, in the paper's
// order: Poisson, k-f-t, A_D, and A_D_S or A_D_C.
func (s Spec) Schemes() []sim.Scheme {
	var paper sim.Scheme
	if s.AdaptiveSub == checkpoint.SCP {
		paper = core.NewAdaptDVSSCP()
	} else {
		paper = core.NewAdaptDVSCCP()
	}
	return []sim.Scheme{
		core.NewPoissonScheme(s.BaselineFreq),
		core.NewKFTScheme(s.BaselineFreq),
		core.NewADTDVS(),
		paper,
	}
}

// CellParams builds the simulation parameters for one grid point.
func (s Spec) CellParams(u, lambda float64) (sim.Params, error) {
	tk, err := task.FromUtilization(
		fmt.Sprintf("tbl%s-U%.2f", s.ID, u), u, s.BaselineFreq, Deadline, s.K)
	if err != nil {
		return sim.Params{}, err
	}
	return sim.Params{Task: tk, Costs: s.Costs, Lambda: lambda, Store: s.Store}, nil
}

// Tables returns the specs of all eight sub-tables, in paper order.
func Tables() []Spec {
	scp, ccp := checkpoint.SCPSetting(), checkpoint.CCPSetting()
	kA, kB := 5, 1
	uA := []float64{0.76, 0.78, 0.80, 0.82}
	lamA := []float64{0.0014, 0.0016}
	uB1 := []float64{0.92, 0.95, 1.00} // f1 sub-tables (b)
	uB2 := []float64{0.92, 0.95}       // f2 sub-tables (b)
	lamB := []float64{1e-4, 2e-4}
	return []Spec{
		{ID: "1a", Title: "SCP setting, k=5, baselines at f1", Costs: scp, K: kA, BaselineFreq: 1, Us: uA, Lambdas: lamA, AdaptiveSub: checkpoint.SCP},
		{ID: "1b", Title: "SCP setting, k=1, baselines at f1", Costs: scp, K: kB, BaselineFreq: 1, Us: uB1, Lambdas: lamB, AdaptiveSub: checkpoint.SCP},
		{ID: "2a", Title: "SCP setting, k=5, baselines at f2", Costs: scp, K: kA, BaselineFreq: 2, Us: uA, Lambdas: lamA, AdaptiveSub: checkpoint.SCP},
		{ID: "2b", Title: "SCP setting, k=1, baselines at f2", Costs: scp, K: kB, BaselineFreq: 2, Us: uB2, Lambdas: lamB, AdaptiveSub: checkpoint.SCP},
		{ID: "3a", Title: "CCP setting, k=5, baselines at f1", Costs: ccp, K: kA, BaselineFreq: 1, Us: uA, Lambdas: lamA, AdaptiveSub: checkpoint.CCP},
		{ID: "3b", Title: "CCP setting, k=1, baselines at f1", Costs: ccp, K: kB, BaselineFreq: 1, Us: uB1, Lambdas: lamB, AdaptiveSub: checkpoint.CCP},
		{ID: "4a", Title: "CCP setting, k=5, baselines at f2", Costs: ccp, K: kA, BaselineFreq: 2, Us: uA, Lambdas: lamA, AdaptiveSub: checkpoint.CCP},
		{ID: "4b", Title: "CCP setting, k=1, baselines at f2", Costs: ccp, K: kB, BaselineFreq: 2, Us: uB2, Lambdas: lamB, AdaptiveSub: checkpoint.CCP},
	}
}

// TableByID looks a spec up by its paper label.
func TableByID(id string) (Spec, error) {
	for _, s := range Tables() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiment: no table %q (want 1a..4b)", id)
}

// CellResult is one (scheme × grid point) outcome.
type CellResult struct {
	Scheme string
	// Done marks a cell whose Summary was actually computed. Cells of a
	// cancelled or failed table run keep Done=false, so partial tables
	// are unambiguous: a zero Summary with Done=false was never run, not
	// measured as zero.
	Done bool
	stats.Summary
}

// Row is one grid point with all scheme columns.
type Row struct {
	U      float64
	Lambda float64
	Cells  []CellResult
}

// Table is a completed sub-table run.
type Table struct {
	Spec Spec
	Reps int
	Rows []Row
}

// CellsDone counts finished cells against the table's total — the
// progress/partiality view callers of RunTableCtx use after an error or
// a cancellation.
func (t Table) CellsDone() (done, total int) {
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			total++
			if c.Done {
				done++
			}
		}
	}
	return done, total
}

// CellError identifies a failed grid cell with everything needed to
// reproduce it in isolation: the sub-table, the grid coordinates, the
// scheme column and the derived cell seed. Err holds the underlying
// failure; for a panicking scheme, Panicked is set and Stack carries the
// goroutine stack captured at recovery time.
type CellError struct {
	Table     string
	U, Lambda float64
	Scheme    string
	// Seed is the derived per-cell seed (Runner.cellSeed output): rerun
	// the cell's repetitions with mix(Seed, rep) streams to reproduce.
	Seed     uint64
	Panicked bool
	Stack    []byte
	Err      error
}

func (e *CellError) Error() string {
	verb := "failed"
	if e.Panicked {
		verb = "panicked"
	}
	return fmt.Sprintf("experiment: cell %s U=%.2f λ=%g %s (cell seed %d) %s: %v",
		e.Table, e.U, e.Lambda, e.Scheme, e.Seed, verb, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// Runner executes specs with deterministic seeding.
type Runner struct {
	// Reps per cell; zero means DefaultReps.
	Reps int
	// Seed is the base seed; runs are reproducible for a fixed Seed
	// independent of worker count.
	Seed uint64
	// Workers caps the parallel goroutines; zero means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives a line per completed cell.
	Progress func(format string, args ...any)
	// OnCell, when non-nil, is called after every successfully finished
	// cell with the running done count and the table's cell total. It is
	// invoked under the runner's internal lock (calls are serialised, in
	// completion order) — the job-level progress hook long-running
	// callers (the serve layer) surface to their clients. It must not
	// block.
	OnCell func(done, total int)
	// Sink, when non-nil, receives per-cell telemetry: cell.start /
	// cell.finish trace events, cells-completed/failed, shard and reps
	// counters, a per-cell wall-time histogram, and the planner
	// cache-hit ledger drained from each worker's run context. It is
	// consulted per cell and per shard — never per repetition — and must
	// be safe for concurrent use (every worker reports through it). A
	// nil Sink costs nothing: results are bit-for-bit identical either
	// way.
	Sink telemetry.Sink
	// ShardSize is the number of repetitions per work-stealing shard
	// unit; zero means DefaultShardSize. Any value yields bit-identical
	// results — shard size (like worker count and steal order) only
	// shapes scheduling, never statistics. A shard is also the batch the
	// structure-of-arrays kernel executes in one flat pass, so ShardSize
	// doubles as the batch size (recorded alongside throughput in
	// BENCH_simstack.json entries).
	ShardSize int
	// DisableBatch forces every shard through the scalar reference loop
	// instead of the batched structure-of-arrays kernel. The two paths
	// are bit-identical (the batch/scalar equivalence tests pin it), so
	// this is purely a benchmarking/ablation knob — it changes speed,
	// never a result bit.
	DisableBatch bool

	// OnShard, when non-nil, receives every successfully executed
	// shard's binary checkpoint (stats.Shard encoding of reps
	// [start, end) of the cell with the given derived seed) before it is
	// merged — the durability hook crash recovery hangs off. Called from
	// every worker; must be safe for concurrent use. Because the shard
	// algebra is order-independent, persisting these in completion order
	// loses nothing.
	OnShard func(cellSeed uint64, start, end int, data []byte)
	// Recovered, when non-nil, is consulted once per cell before any
	// shard is scheduled: checkpoints it returns for the cell's seed are
	// validated (in-range, disjoint, decodable, trial count matching the
	// rep range — anything suspect is silently recomputed), merged, and
	// excluded from execution. The resumed Summary is bit-identical to
	// an uninterrupted run.
	Recovered func(cellSeed uint64) []ShardCheckpoint

	// shardFault, when non-nil, is the chaos hook of the shard
	// scheduler: invoked after each successfully executed shard with the
	// cell index, rep range and retry attempt; returning true discards
	// the shard's statistics and re-runs it in place, modelling a
	// spuriously cancelled stolen shard. Test-only.
	shardFault func(cell, start, end, attempt int) bool
}

// Metric families the runner reports through its Sink. Exported so the
// serve layer can pre-register them with help text and tests can
// assert on them without string drift.
const (
	// MetricCellsCompleted counts grid cells whose Summary was computed.
	MetricCellsCompleted = "grid_cells_completed_total"
	// MetricCellsFailed counts cells that errored or panicked.
	MetricCellsFailed = "grid_cells_failed_total"
	// MetricReps counts Monte-Carlo repetitions across completed cells.
	MetricReps = "grid_reps_total"
	// MetricCellSeconds is the per-cell wall-time histogram.
	MetricCellSeconds = "grid_cell_seconds"
	// MetricPlannerHits / MetricPlannerMisses are the plan-cache ledger
	// drained from the workers' run contexts (core.PlannerCacheStats).
	MetricPlannerHits   = "planner_cache_hits_total"
	MetricPlannerMisses = "planner_cache_misses_total"
	// MetricShards counts executed shard units (including skipped shards
	// of failed cells).
	MetricShards = "grid_shards_total"
	// MetricShardsScalar counts the shard units among them that ran the
	// scalar reference loop instead of a batch kernel — by fallback
	// (tracing, a custom fault process, a scheme without a kernel) or
	// because DisableBatch forced it.
	MetricShardsScalar = "grid_shards_scalar_total"
	// MetricShardsStolen counts shard units moved between worker deques
	// by work stealing.
	MetricShardsStolen = "grid_shards_stolen_total"
	// MetricShardRetries counts chaos-injected shard re-executions
	// (discard-and-rerun; never double-merged).
	MetricShardRetries = "grid_shard_retries_total"
)

// Store metric families (store_*), reported when cells run under a
// tiered checkpoint store (Spec.Store or a store-wrapping scheme) and
// flushed per shard from each worker's private store.Stats — the same
// drain pattern as the planner cache ledger. The registry has no label
// support, so the per-tier and per-depth families embed the index in
// the metric name.
const (
	// MetricStoreEvictions counts images discarded by the maintenance
	// policy at the retention bound.
	MetricStoreEvictions = "store_evictions_total"
	// MetricStoreDemotions counts images rewritten into a deeper tier by
	// the recency cascade.
	MetricStoreDemotions = "store_demotions_total"
	// MetricStoreTruncated counts stale post-rollback images dropped.
	MetricStoreTruncated = "store_truncated_total"
	// MetricStoreRestarts counts recoveries that found nothing usable and
	// restarted the task from scratch.
	MetricStoreRestarts = "store_restarts_total"
	// MetricStoreRecoveries counts store-walking rollbacks.
	MetricStoreRecoveries = "store_recoveries_total"
)

// Per-tier and per-depth store family names, precomputed so the
// per-shard flush never formats strings.
var (
	storeTierWriteNames        [store.MaxTiers]string
	storeTierRestoreNames      [store.MaxTiers]string
	storeTierRestoreCycleNames [store.MaxTiers]string
	storeDepthNames            [store.DepthBuckets]string
)

func init() {
	for t := 0; t < store.MaxTiers; t++ {
		storeTierWriteNames[t] = fmt.Sprintf("store_tier%d_writes_total", t)
		storeTierRestoreNames[t] = fmt.Sprintf("store_tier%d_restores_total", t)
		storeTierRestoreCycleNames[t] = fmt.Sprintf("store_tier%d_restore_cycles", t)
	}
	for b := 0; b < store.DepthBuckets; b++ {
		storeDepthNames[b] = fmt.Sprintf("store_rollback_depth%d_total", b+1)
	}
}

// MetricStoreTierWrites returns the per-tier physical-write counter
// family name ("store_tier<t>_writes_total").
func MetricStoreTierWrites(t int) string { return storeTierWriteNames[t] }

// MetricStoreTierRestores returns the per-tier restore-attempt counter
// family name ("store_tier<t>_restores_total").
func MetricStoreTierRestores(t int) string { return storeTierRestoreNames[t] }

// MetricStoreTierRestoreCycles returns the per-tier restore-cycles
// histogram family name ("store_tier<t>_restore_cycles"); each
// observation is one shard's worth of charged cycles.
func MetricStoreTierRestoreCycles(t int) string { return storeTierRestoreCycleNames[t] }

// MetricStoreDepth returns the rollback-depth counter family name for
// recoveries that examined exactly d images ("store_rollback_depth<d>_total",
// d in 1..store.DepthBuckets, the last bucket absorbing deeper walks).
func MetricStoreDepth(d int) string { return storeDepthNames[d-1] }

// StoreCounterNames lists every store_* counter family, in a stable
// order — the set serve pre-registers and the consistency tests assert.
func StoreCounterNames() []string {
	names := []string{
		MetricStoreEvictions, MetricStoreDemotions, MetricStoreTruncated,
		MetricStoreRestarts, MetricStoreRecoveries,
	}
	for t := 0; t < store.MaxTiers; t++ {
		names = append(names, storeTierWriteNames[t], storeTierRestoreNames[t])
	}
	names = append(names, storeDepthNames[:]...)
	return names
}

func (r Runner) reps() int {
	if r.Reps <= 0 {
		return DefaultReps
	}
	return r.Reps
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// mix derives a per-repetition seed from the cell seed: the i-th member
// of the counter-based rng.Stream family (bit-identical to the formula
// this package used before the derivation was hoisted into rng).
func mix(cell uint64, rep int) uint64 { return rng.Stream(cell, rep) }

// CellSeed derives the deterministic seed of a (table, U, λ, scheme)
// cell from the base seed — the same derivation every Runner uses.
// Exported so remote executors (the cluster worker) can address the
// identical rep streams from nothing but the cell's grid coordinates:
// a shard computed anywhere from (CellSeed, rep range) is bit-identical
// to the one a local run would produce.
func CellSeed(base uint64, id string, u, lambda float64, scheme string) uint64 {
	// FNV-1a over the textual key keeps seeds stable across refactors.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	// The key bytes match the original fmt.Sprintf("%s|%.6f|%.8f|%s|%d",
	// ...) exactly — fmt's %f formatting is strconv.AppendFloat with the
	// same verb and precision — without the printf machinery.
	buf := make([]byte, 0, 96)
	buf = append(buf, id...)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, u, 'f', 6, 64)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, lambda, 'f', 8, 64)
	buf = append(buf, '|')
	buf = append(buf, scheme...)
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, base, 10)
	h := uint64(offset)
	for _, b := range buf {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// cellSeed derives a deterministic seed for a (table, U, λ, scheme) cell.
func (r Runner) cellSeed(id string, u, lambda float64, scheme string) uint64 {
	return CellSeed(r.Seed, id, u, lambda, scheme)
}

// RunCell simulates one cell to a Summary.
func (r Runner) RunCell(spec Spec, scheme sim.Scheme, u, lambda float64) (stats.Summary, error) {
	return r.RunCellCtx(context.Background(), spec, scheme, u, lambda)
}

// RunCellCtx is RunCell with cancellation: the repetition loops poll ctx
// periodically and return ctx.Err() once it fires. The cell's shards run
// across the runner's workers (the same scheduler as RunTableCtx), so a
// single large cell scales with the machine — and, by the shard merge
// algebra, the Summary is bit-identical to a sequential run.
func (r Runner) RunCellCtx(ctx context.Context, spec Spec, scheme sim.Scheme, u, lambda float64) (stats.Summary, error) {
	c := r.newCellState(spec, 0, 0, u, lambda, scheme)
	var out stats.Summary
	err := r.runShards(ctx, []*cellState{c}, func(_ *cellState, sum stats.Summary, _, _ int) {
		out = sum
	})
	if err != nil {
		var ce *CellError
		if errors.As(err, &ce) && !ce.Panicked {
			// The single-cell API reports the bare underlying error
			// (ctx.Err(), parameter failures); the CellError wrapper is
			// the grid path's bookkeeping.
			return stats.Summary{}, ce.Err
		}
		return stats.Summary{}, err
	}
	return out, nil
}

// RunTable runs every cell of a spec, parallelising across cells.
func (r Runner) RunTable(spec Spec) (Table, error) {
	return r.RunTableCtx(context.Background(), spec)
}

// RunTableCtx is RunTable with cancellation, over the spec's paper
// columns (Spec.Schemes).
func (r Runner) RunTableCtx(ctx context.Context, spec Spec) (Table, error) {
	return r.runTable(ctx, spec, spec.Schemes())
}

// NewTable returns the empty positional table of the spec's grid with
// the given scheme columns: one row per (U, λ) in U-major order, every
// cell named and Done=false. Every grid path — local tables, extension
// tables and the cluster coordinator — lays its cells out here, so
// their tables assemble identically.
func (s Spec) NewTable(reps int, schemes []sim.Scheme) Table {
	rows := make([]Row, 0, len(s.Us)*len(s.Lambdas))
	for _, u := range s.Us {
		for _, lam := range s.Lambdas {
			row := Row{U: u, Lambda: lam, Cells: make([]CellResult, len(schemes))}
			for ci, sc := range schemes {
				row.Cells[ci].Scheme = sc.Name()
			}
			rows = append(rows, row)
		}
	}
	return Table{Spec: s, Reps: reps, Rows: rows}
}

// runTable runs every cell of the spec's grid under the given scheme
// columns. On error — a panicking cell or a fired context — the
// remaining cells still drain, and the partial table is returned
// alongside the first error so completed cells are not lost. Cells
// execute as rep-shard units across a work-stealing pool of workers,
// each owning a private run context (engine, rng stream and plan caches
// reused, never shared); results depend only on per-rep seeds, so worker
// count, shard size and steal order cannot affect any Summary bit.
func (r Runner) runTable(ctx context.Context, spec Spec, schemes []sim.Scheme) (Table, error) {
	tbl := spec.NewTable(r.reps(), schemes)
	cells := make([]*cellState, 0, len(tbl.Rows)*len(schemes))
	for ri, row := range tbl.Rows {
		for ci, s := range schemes {
			cells = append(cells, r.newCellState(spec, ri, ci, row.U, row.Lambda, s))
		}
	}
	err := r.runShards(ctx, cells, func(c *cellState, sum stats.Summary, done, total int) {
		cell := &tbl.Rows[c.rowIdx].Cells[c.colIdx]
		cell.Summary, cell.Done = sum, true
		if r.Progress != nil {
			r.Progress("table %s U=%.2f λ=%g %-14s P=%.4f E=%.0f",
				spec.ID, c.u, c.lambda, c.scheme.Name(), sum.P, sum.E)
		}
		if r.OnCell != nil {
			r.OnCell(done, total)
		}
	})
	return tbl, err
}

// sameCell reports float equality tolerant of map-key rounding.
func sameCell(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// NewSpec builds a custom (non-paper) sub-table spec with validation, so
// library users can grid their own environments with the same runner and
// renderers.
func NewSpec(id, title string, costs checkpoint.Costs, k int, baselineFreq float64, us, lambdas []float64, sub checkpoint.Kind) (Spec, error) {
	s := Spec{
		ID: id, Title: title, Costs: costs, K: k,
		BaselineFreq: baselineFreq, Us: us, Lambdas: lambdas, AdaptiveSub: sub,
	}
	return s, s.Validate()
}

// Validate reports whether the spec is runnable.
func (s Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("experiment: empty spec id")
	}
	if err := s.Costs.Validate(); err != nil {
		return err
	}
	if s.K < 0 {
		return fmt.Errorf("experiment: negative fault budget %d", s.K)
	}
	if s.BaselineFreq <= 0 {
		return fmt.Errorf("experiment: non-positive baseline frequency %v", s.BaselineFreq)
	}
	if len(s.Us) == 0 || len(s.Lambdas) == 0 {
		return fmt.Errorf("experiment: empty grid")
	}
	for _, u := range s.Us {
		if u <= 0 {
			return fmt.Errorf("experiment: non-positive utilisation %v", u)
		}
	}
	for _, lam := range s.Lambdas {
		if lam < 0 || math.IsNaN(lam) {
			return fmt.Errorf("experiment: bad λ %v", lam)
		}
	}
	if s.AdaptiveSub != checkpoint.SCP && s.AdaptiveSub != checkpoint.CCP {
		return fmt.Errorf("experiment: adaptive sub-checkpoint must be SCP or CCP")
	}
	if err := s.Store.Validate(); err != nil {
		return err
	}
	return nil
}
