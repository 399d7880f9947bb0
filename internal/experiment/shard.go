// Rep-level sharded execution: the unit of parallel work is a
// (cell, rep-shard) pair, not a whole cell. Every repetition's stream is
// a pure function of (cellSeed, repIndex) — rng.Stream, counter-based —
// and every shard accumulates into an order-independent stats.Shard, so
// any shard can run on any worker in any order and the merged Summary is
// bit-for-bit identical to a sequential run. Scheduling is a bounded
// work-stealing pool: each worker owns a deque of shard units (LIFO pop
// for planner-cache locality), and an idle worker steals the front half
// of the first non-empty victim deque. The work set is static — no unit
// ever creates another, and chaos retries re-run in place — so a worker
// that finds its own deque empty and nothing stealable can exit: every
// remaining unit is in a live worker's hands.

package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// DefaultShardSize is the repetitions-per-shard used when
// Runner.ShardSize is zero: large enough that per-shard bookkeeping
// (deque traffic, one merge under the cell lock) is noise, small enough
// that a default 10k-rep cell splits into ~80 stealable units.
const DefaultShardSize = 128

func (r Runner) shardSize() int {
	if r.ShardSize > 0 {
		return r.ShardSize
	}
	return DefaultShardSize
}

// repKey derives the quantile-sketch key of one repetition from the cell
// seed and the rep index — a second, independent counter-based stream
// family (salted so it never collides with the rep's rng stream). Keys
// are identities, never execution order, which is what makes the
// bottom-k time sketch order-free.
func repKey(cellSeed uint64, rep int) uint64 {
	return rng.Stream(cellSeed^0xd1342543de82ef95, rep)
}

// shardUnit is one contiguous run of repetitions of one cell.
type shardUnit struct {
	cell       int // index into the scheduler's cell list
	start, end int // rep range [start, end)
}

// deque is a mutex-guarded work deque: the owner pops from the back
// (most recently distributed, best planner-cache locality), thieves take
// the front half.
type deque struct {
	mu    sync.Mutex
	units []shardUnit
}

func (d *deque) pop() (shardUnit, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.units)
	if n == 0 {
		return shardUnit{}, false
	}
	u := d.units[n-1]
	d.units = d.units[:n-1]
	return u, true
}

// stealHalf removes and returns the front half (rounded up) of the
// deque, oldest units first — the classic steal-half policy.
func (d *deque) stealHalf() []shardUnit {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.units)
	if n == 0 {
		return nil
	}
	k := (n + 1) / 2
	got := append([]shardUnit(nil), d.units[:k]...)
	d.units = d.units[:copy(d.units, d.units[k:])]
	return got
}

func (d *deque) push(us []shardUnit) {
	d.mu.Lock()
	d.units = append(d.units, us...)
	d.mu.Unlock()
}

// cellState is the shared accumulation point of one grid cell: shards
// merge into agg under mu, the last shard to finish freezes the Summary.
type cellState struct {
	spec           Spec
	rowIdx, colIdx int
	u, lambda      float64
	scheme         sim.Scheme
	params         sim.Params
	paramsErr      error
	seed           uint64

	mu           sync.Mutex
	agg          stats.Shard
	remaining    int // shards not yet accounted for
	recovered    int // reps restored from checkpoints, not executed
	started      bool
	failed       bool
	t0           time.Time // first shard start; only set when a sink observes
	hits, misses uint64    // planner-cache deltas attributed to this cell
}

func (r Runner) newCellState(spec Spec, rowIdx, colIdx int, u, lambda float64, scheme sim.Scheme) *cellState {
	c := &cellState{
		spec: spec, rowIdx: rowIdx, colIdx: colIdx,
		u: u, lambda: lambda, scheme: scheme,
		seed: r.cellSeed(spec.ID, u, lambda, scheme.Name()),
	}
	c.params, c.paramsErr = spec.CellParams(u, lambda)
	return c
}

// wrap turns an underlying failure into a *CellError carrying the cell's
// reproduction coordinates.
func (c *cellState) wrap(err error) *CellError {
	return &CellError{
		Table: c.spec.ID, U: c.u, Lambda: c.lambda,
		Scheme: c.scheme.Name(), Seed: c.seed, Err: err,
	}
}

// sched is one table run's scheduler state.
type sched struct {
	r      *Runner
	ctx    context.Context
	cells  []*cellState
	deques []deque
	sink   telemetry.Sink

	mu       sync.Mutex
	firstErr error
	done     int
	onDone   func(c *cellState, sum stats.Summary, done, total int)
	wg       sync.WaitGroup
}

// runShards executes every cell's repetitions as shard units across a
// bounded work-stealing pool and reports each completed cell — in
// completion order, serialised under the scheduler lock — through
// onDone. On error (panic, parameter failure, fired context) the
// remaining units still drain fast (failed cells skip execution), and
// the first error is returned; completed cells have already been
// reported.
func (r Runner) runShards(ctx context.Context, cells []*cellState, onDone func(*cellState, stats.Summary, int, int)) error {
	size := r.shardSize()
	reps := r.reps()
	var units []shardUnit
	var fullyRecovered []*cellState
	for ci, c := range cells {
		var cps []ShardCheckpoint
		if r.Recovered != nil {
			cps = r.Recovered(c.seed)
		}
		// Merge surviving checkpoints up front (no lock needed: the
		// workers do not exist yet) and schedule only the gaps — every
		// rep when nothing was recovered.
		var shards int
		var gaps []ShardRange
		c.recovered, shards, gaps = RecoverInto(&c.agg, cps, reps, size)
		if shards > 0 && r.Sink != nil {
			r.Sink.Count(MetricShardsRecovered, int64(shards))
		}
		c.remaining = len(gaps)
		if len(gaps) == 0 {
			fullyRecovered = append(fullyRecovered, c)
		}
		for _, g := range gaps {
			units = append(units, shardUnit{cell: ci, start: g.Start, end: g.End})
		}
	}
	nw := r.workers()
	if nw > len(units) {
		nw = len(units)
	}
	if nw == 0 {
		nw = 1 // sched still reports fully recovered cells
	}
	s := &sched{r: &r, ctx: ctx, cells: cells, deques: make([]deque, nw), sink: r.Sink, onDone: onDone}
	// Cells whose every rep came back from checkpoints finish before any
	// worker starts — reported through the same serialised path.
	for _, c := range fullyRecovered {
		c.started = true
		if r.Sink != nil {
			c.t0 = time.Now()
		}
		s.finishCell(c)
	}
	if len(units) == 0 {
		return nil
	}
	// Contiguous block distribution: each worker starts on a run of
	// same-cell shards (warm plan cache); imbalance is what stealing is
	// for.
	for w := 0; w < nw; w++ {
		lo, hi := w*len(units)/nw, (w+1)*len(units)/nw
		s.deques[w].units = append([]shardUnit(nil), units[lo:hi]...)
	}
	s.wg.Add(nw)
	for w := 0; w < nw; w++ {
		go s.worker(w)
	}
	s.wg.Wait()
	return s.firstErr
}

func (s *sched) worker(w int) {
	defer s.wg.Done()
	sc := sim.GetContexts()
	var scratch stats.Shard
	// A pooled context carries cache counters from previous runs; the
	// per-shard telemetry deltas must start from its current totals.
	seenHits, seenMisses := core.PlannerCacheStats(&sc.Run)
	// Private store-activity accumulator: the engine writes into cur
	// without sharing; seen holds the last flushed snapshot so each
	// shard reports only its delta.
	var storeCur, storeSeen store.Stats
	for {
		u, ok := s.deques[w].pop()
		if !ok {
			u, ok = s.steal(w)
		}
		if !ok {
			sim.PutContexts(sc)
			return
		}
		if panicked(s.runUnit(u, &sc.Run, &sc.Batch, &scratch, &seenHits, &seenMisses, &storeCur, &storeSeen)) {
			// The pool's policy: a pair a scheme panicked in is dropped,
			// never reused or returned.
			sc = sim.GetContexts()
			seenHits, seenMisses = core.PlannerCacheStats(&sc.Run)
		}
	}
}

// flushStoreStats reports the store activity accumulated since the last
// flush and advances the snapshot. Cells without a store never move the
// counters, so the common case is one comparison.
func flushStoreStats(sink telemetry.Sink, cur, seen *store.Stats) {
	if *cur == *seen {
		return
	}
	count := func(name string, d uint64) {
		if d > 0 {
			sink.Count(name, int64(d))
		}
	}
	count(MetricStoreEvictions, cur.Evictions-seen.Evictions)
	count(MetricStoreDemotions, cur.Demotions-seen.Demotions)
	count(MetricStoreTruncated, cur.Truncated-seen.Truncated)
	count(MetricStoreRestarts, cur.Restarts-seen.Restarts)
	count(MetricStoreRecoveries, cur.Recoveries-seen.Recoveries)
	for t := 0; t < store.MaxTiers; t++ {
		count(storeTierWriteNames[t], cur.TierWrites[t]-seen.TierWrites[t])
		count(storeTierRestoreNames[t], cur.TierRestores[t]-seen.TierRestores[t])
		if d := cur.TierRestoreCycles[t] - seen.TierRestoreCycles[t]; d > 0 {
			sink.Observe(storeTierRestoreCycleNames[t], d)
		}
	}
	for b := 0; b < store.DepthBuckets; b++ {
		count(storeDepthNames[b], cur.Depth[b]-seen.Depth[b])
	}
	*seen = *cur
}

// steal scans the other deques for work, moving half of the first
// non-empty victim's units into w's own deque and returning one to run.
// Two scan rounds (with a yield between) close the window where units
// are mid-transfer between two deques and a single scan would miss them;
// missing the window is safe — the units stay with a live worker — just
// less parallel.
func (s *sched) steal(w int) (shardUnit, bool) {
	n := len(s.deques)
	for attempt := 0; attempt < 2; attempt++ {
		for off := 1; off < n; off++ {
			got := s.deques[(w+off)%n].stealHalf()
			if len(got) == 0 {
				continue
			}
			if s.sink != nil {
				s.sink.Count(MetricShardsStolen, int64(len(got)))
			}
			if len(got) > 1 {
				s.deques[w].push(got[1:])
			}
			return got[0], true
		}
		if n > 1 {
			runtime.Gosched()
		}
	}
	return shardUnit{}, false
}

// runUnit executes one shard and merges it into its cell, handling
// chaos retries, failure propagation and last-shard completion. It
// returns the shard's execution error (nil for a skipped shard).
func (s *sched) runUnit(u shardUnit, rctx *sim.RunContext, bctx *sim.BatchContext, scratch *stats.Shard, seenHits, seenMisses *uint64, storeCur, storeSeen *store.Stats) error {
	c := s.cells[u.cell]
	c.mu.Lock()
	if !c.started {
		c.started = true
		if s.sink != nil {
			c.t0 = time.Now()
			s.sink.Event("cell.start", map[string]any{
				"table": c.spec.ID, "u": c.u, "lambda": c.lambda,
				"scheme": c.scheme.Name(),
			})
		}
	}
	skip := c.failed
	c.mu.Unlock()

	var err error
	scalar := false
	if !skip {
		for attempt := 0; ; attempt++ {
			scratch.Reset()
			scalar, err = c.exec(s.ctx, rctx, bctx, scratch, u.start, u.end, storeCur, s.r.DisableBatch)
			if err == nil && s.r.shardFault != nil && s.r.shardFault(u.cell, u.start, u.end, attempt) {
				// Chaos: the shard is spuriously cancelled after the work
				// is done — discard its statistics and re-run it in place.
				// The retry never merges twice, so reps are never counted
				// twice.
				if s.sink != nil {
					s.sink.Count(MetricShardRetries, 1)
				}
				continue
			}
			break
		}
	}

	var dh, dm uint64
	if s.sink != nil {
		s.sink.Count(MetricShards, 1)
		if scalar {
			s.sink.Count(MetricShardsScalar, 1)
		}
		hits, misses := core.PlannerCacheStats(rctx)
		dh, dm = hits-*seenHits, misses-*seenMisses
		*seenHits, *seenMisses = hits, misses
		s.sink.Count(MetricPlannerHits, int64(dh))
		s.sink.Count(MetricPlannerMisses, int64(dm))
		flushStoreStats(s.sink, storeCur, storeSeen)
	}

	if err == nil && !skip && s.r.OnShard != nil {
		// Checkpoint the shard before merging it: a crash between the
		// two re-runs the shard (replay validates and dedups), a crash
		// after the merge but before the cell finishes recovers it.
		s.r.OnShard(c.seed, u.start, u.end, scratch.AppendBinary(nil))
	}
	crashpoint.Hit("shard.merge")

	c.mu.Lock()
	c.hits += dh
	c.misses += dm
	newlyFailed := false
	if err != nil && !c.failed {
		c.failed = true
		newlyFailed = true
	}
	if err == nil && !c.failed {
		c.agg.Merge(scratch)
	}
	c.remaining--
	lastOK := c.remaining == 0 && !c.failed
	c.mu.Unlock()

	if newlyFailed {
		s.failCell(c, err)
	}
	if lastOK {
		s.finishCell(c)
	}
	return err
}

// exec runs reps [start, end) of the cell into scratch — the one shard
// executor behind the work-stealing worker and the remote ExecUnits.
// Each rep's stream and sketch key depend only on (cellSeed, rep), so
// the result is independent of which worker runs it, and when. A
// parameter failure or execution error comes back wrapped in a
// *CellError; a panicking scheme is recovered into one with Panicked set
// and the stack captured, and the caller then drops its contexts.
// storeStats, when non-nil, receives the engine's store activity.
// scalar reports that the shard ran the scalar loop.
func (c *cellState) exec(ctx context.Context, rctx *sim.RunContext, bctx *sim.BatchContext, scratch *stats.Shard, start, end int, storeStats *store.Stats, disableBatch bool) (scalar bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			ce := c.wrap(fmt.Errorf("%v", p))
			ce.Panicked = true
			ce.Stack = debug.Stack()
			err = ce
		}
	}()
	if c.paramsErr != nil {
		return false, c.wrap(c.paramsErr)
	}
	params := c.params
	// Aim the engine's store counters at the caller's accumulator. The
	// pointer rides through even when a wrapper scheme (StoreScheme)
	// injects the store config mid-run, so wrapped cells report too.
	params.StoreStats = storeStats
	scalar, rerr := execRange(ctx, rctx, bctx, scratch, c.scheme, params, c.seed, start, end, disableBatch)
	if rerr != nil {
		return scalar, c.wrap(rerr)
	}
	return scalar, nil
}

// execRange runs repetitions [start, end) of the cell identified by
// cellSeed into scratch — the execution core of cellState.exec. The batch
// kernel is the warm default; the scalar loop is the reference and the
// fallback for configurations outside the kernel envelope; both produce
// byte-identical Shard payloads. scalar reports that the range ran the
// scalar loop. Panics propagate to the caller, which owns recovery
// policy.
func execRange(ctx context.Context, rctx *sim.RunContext, bctx *sim.BatchContext, scratch *stats.Shard, scheme sim.Scheme, params sim.Params, cellSeed uint64, start, end int, disableBatch bool) (scalar bool, err error) {
	if !disableBatch && bctx != nil {
		// One cancellation poll per batch — the same granularity the
		// scalar loop polls at (a shard is at most a few hundred reps).
		if cerr := ctx.Err(); cerr != nil {
			return false, cerr
		}
		n := end - start
		bctx.Grow(n)
		bctx.GrowWrong(n)
		// Bulk counter-based derivation: one pass per stream family,
		// element-for-element identical to mix/repKey over the range.
		rng.StreamBatch(cellSeed, start, bctx.Seeds[:n])
		rng.StreamBatch(cellSeed^0xd1342543de82ef95, start, bctx.Keys[:n])
		if sim.RunBatch(rctx, bctx, scheme, params, bctx.Seeds) {
			scratch.ObserveBatch(bctx.Keys, bctx.Completed, bctx.Wrong,
				bctx.Energy, bctx.Time, bctx.Faults, bctx.Switches)
			return false, nil
		}
	}
	for rep := start; rep < end; rep++ {
		if (rep-start)&0xff == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return true, cerr
			}
		}
		res := sim.RunScheme(rctx, scheme, params, rctx.Reseed(mix(cellSeed, rep)))
		scratch.ObserveRun(repKey(cellSeed, rep), res.Completed, res.SilentCorruption,
			res.Energy, res.Time, float64(res.Faults), float64(res.Switches))
	}
	return true, nil
}

// failCell records a cell's first failure: the table error, the failed
// counter and the cell.finish trace event. Later shards of the cell
// skip execution and only drain the remaining count.
func (s *sched) failCell(c *cellState, err error) {
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
	if s.sink != nil {
		sec := time.Since(c.t0).Seconds()
		s.sink.Count(MetricCellsFailed, 1)
		s.sink.Observe(MetricCellSeconds, sec)
		s.sink.Event("cell.finish", map[string]any{
			"table": c.spec.ID, "u": c.u, "lambda": c.lambda,
			"scheme": c.scheme.Name(), "ok": false,
			"reps": s.r.reps(), "seconds": sec, "error": err.Error(),
		})
	}
}

// finishCell freezes a fully merged cell and reports it. grid_reps_total
// is counted here, once per completed cell — never per shard — so
// chaos-retried shards cannot double-count repetitions.
func (s *sched) finishCell(c *cellState) {
	sum := c.agg.Summary()
	reps := s.r.reps()
	if s.sink != nil {
		sec := time.Since(c.t0).Seconds()
		attrs := map[string]any{
			"table": c.spec.ID, "u": c.u, "lambda": c.lambda,
			"scheme": c.scheme.Name(), "ok": true,
			"reps": reps, "seconds": sec,
		}
		if sec > 0 {
			attrs["reps_per_sec"] = float64(reps) / sec
		}
		if c.hits+c.misses > 0 {
			attrs["planner_hits"] = c.hits
			attrs["planner_misses"] = c.misses
		}
		if c.recovered > 0 {
			attrs["reps_recovered"] = c.recovered
		}
		s.sink.Count(MetricCellsCompleted, 1)
		// Executed and recovered reps are counted into disjoint families:
		// grid_reps_total + grid_reps_recovered_total == cells × reps,
		// exactly, resumed or not.
		s.sink.Count(MetricReps, int64(reps-c.recovered))
		if c.recovered > 0 {
			s.sink.Count(MetricRepsRecovered, int64(c.recovered))
		}
		s.sink.Observe(MetricCellSeconds, sec)
		s.sink.Event("cell.finish", attrs)
	}
	s.mu.Lock()
	s.done++
	if s.onDone != nil {
		s.onDone(c, sum, s.done, len(s.cells))
	}
	s.mu.Unlock()
}
