// The remote grid executor: serve's job worker running a grid attempt
// owns all unit state and drives the assign → dispatch → bank loop;
// dispatch goroutines do HTTP only and report on a channel, so every
// invariant (lease expiry → re-dispatch, hedging, first-writer-wins
// dedup, structural validation, exact rep accounting) lives in
// single-threaded code. Admission, deadlines, the journal and the
// result cache are the server's; banked shards go out through its
// OnShard hook and resumed ones come in through Recovered.
//
// The rep ledger is the same one the local engine keeps:
//
//	grid_reps_total + grid_reps_recovered_total == cells × reps
//
// exactly — merged units count into grid_reps_total once (banked units
// drop duplicates), journal-recovered checkpoints into
// grid_reps_recovered_total, and nothing else ever touches either.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/stats"
)

// assignTick is the dispatch loop's idle poll period: how often it
// re-scans for units whose backoff expired or whose hedge timer fired.
const assignTick = 25 * time.Millisecond

// cellAgg is the coordinator-side accumulation point of one grid cell:
// row points into the attempt's table, whose Cells[col] receives the
// folded Summary once every unit is banked. Only the attempt's
// goroutine touches it.
type cellAgg struct {
	row  *experiment.Row
	col  int
	seed uint64
	agg  stats.Shard
}

// unitState is one (cell, rep-range) work unit's scheduling state. Only
// the attempt's goroutine touches it; dispatch goroutines get a copy of
// req.
type unitState struct {
	cellIdx int
	req     UnitRequest

	banked   bool
	inflight int
	hedged   bool
	attempts int
	// sentAt/onAddr describe the primary outstanding dispatch (hedge
	// timing and hedge-target exclusion).
	sentAt time.Time
	onAddr string
	// notBefore is the re-dispatch backoff gate.
	notBefore time.Time
}

// unitOutcome is one dispatch's report back to the attempt goroutine.
type unitOutcome struct {
	idx        int
	worker     *workerState
	hedge      bool
	res        *UnitResult
	retryAfter time.Duration
	err        error
}

// executeGrid is the serve.GridExecutor: one attempt of a grid job,
// from unit construction to the folded table. It returns when every
// unit is banked, or with ctx's error once the deadline, a client
// cancel or a shutdown ends the attempt — the server classifies that
// and decides what the journal records.
func (c *Coordinator) executeGrid(ctx context.Context, spec serve.JobSpec, hooks serve.GridHooks) (serve.GridResult, error) {
	<-c.ready
	tspec, err := experiment.TableByID(spec.Table)
	if err != nil {
		return serve.GridResult{}, err // unreachable for validated specs
	}
	reps := spec.Reps
	if reps <= 0 {
		reps = experiment.DefaultReps
	}
	unitReps := spec.ShardSize
	if unitReps <= 0 {
		unitReps = c.cfg.UnitReps
	}
	// Cells in table order over the layout every grid path shares, so
	// the folded table is positionally the one a local run builds.
	tbl := tspec.NewTable(reps, tspec.Schemes())
	var cells []*cellAgg
	for ri := range tbl.Rows {
		row := &tbl.Rows[ri]
		for ci, cr := range row.Cells {
			cells = append(cells, &cellAgg{
				row: row, col: ci,
				seed: experiment.CellSeed(spec.Seed, tspec.ID, row.U, row.Lambda, cr.Scheme),
			})
		}
	}

	// Units cover only the gaps left after merging the shards the job
	// already banked (none on a first attempt) through the same
	// validation gauntlet the local resume path applies.
	var units []*unitState
	recovered := 0
	for idx, cell := range cells {
		var cps []experiment.ShardCheckpoint
		if hooks.Recovered != nil {
			cps = hooks.Recovered(cell.seed)
		}
		rec, _, gaps := experiment.RecoverInto(&cell.agg, cps, reps, unitReps)
		recovered += rec
		for _, g := range gaps {
			units = append(units, &unitState{
				cellIdx: idx,
				req: UnitRequest{
					Proto: ProtocolVersion, Version: c.cfg.Version,
					Table: tspec.ID, Col: cell.col, U: cell.row.U, Lambda: cell.row.Lambda,
					Seed: spec.Seed, Start: g.Start, End: g.End,
					Store: spec.Store,
				},
			})
		}
	}
	c.met.repsRecovered.Add(int64(recovered))
	hooks.Progress(0, len(units))

	results := make(chan unitOutcome)
	outstanding, banked := 0, 0
	bank := func(out unitOutcome) {
		outstanding--
		if c.handleOutcome(cells, units, out, hooks.OnShard) {
			banked++
			hooks.Progress(banked, len(units))
		}
	}
	ticker := time.NewTicker(assignTick)
	defer ticker.Stop()
loop:
	for banked < len(units) {
		c.assign(ctx, units, results, &outstanding)
		select {
		case out := <-results:
			bank(out)
		case <-ticker.C:
		case <-ctx.Done():
			break loop
		}
	}
	// Drain in-flight dispatches before deciding the outcome: a unit
	// completing during the drain still banks (and with it, possibly,
	// the job).
	for outstanding > 0 {
		bank(<-results)
	}
	if banked < len(units) {
		return serve.GridResult{}, fmt.Errorf("cluster: %d/%d units banked: %w", banked, len(units), ctx.Err())
	}
	c.logf("cluster: grid %s seed %d done (%d units)", tspec.ID, spec.Seed, len(units))
	for _, cell := range cells {
		cell.row.Cells[cell.col].Done = true
		cell.row.Cells[cell.col].Summary = cell.agg.Summary()
	}
	return serve.GridResultFromTable(tbl), nil
}

// assign scans the unit table once and dispatches everything eligible:
// idle units past their backoff to the best worker, and single-inflight
// stragglers past the hedge threshold to a second worker.
func (c *Coordinator) assign(ctx context.Context, units []*unitState, results chan<- unitOutcome, outstanding *int) {
	now := time.Now()
	for i, u := range units {
		if u.banked {
			continue
		}
		if u.inflight == 0 {
			if now.Before(u.notBefore) {
				continue
			}
			w := c.acquireWorker("")
			if w == nil {
				return // no worker is eligible for anything right now
			}
			if u.attempts > 0 {
				c.met.unitsRedispatched.Inc()
			}
			c.launch(ctx, u, i, w, false, results, outstanding)
		} else if u.inflight == 1 && !u.hedged && c.cfg.HedgeAfter > 0 && now.Sub(u.sentAt) > c.cfg.HedgeAfter {
			w := c.acquireWorker(u.onAddr)
			if w == nil {
				continue // no second worker available; keep waiting
			}
			u.hedged = true
			c.met.unitsHedged.Inc()
			c.launch(ctx, u, i, w, true, results, outstanding)
		}
	}
}

// launch starts one dispatch goroutine for unit i on worker w.
func (c *Coordinator) launch(ctx context.Context, u *unitState, idx int, w *workerState, hedge bool, results chan<- unitOutcome, outstanding *int) {
	u.inflight++
	if !hedge {
		u.sentAt = time.Now()
		u.onAddr = w.addr
	}
	*outstanding++
	c.met.unitsDispatched.Inc()
	req := u.req
	t0 := time.Now()
	go func() {
		res, retryAfter, err := c.callExecute(ctx, w.addr, req)
		c.met.unitSeconds.Observe(time.Since(t0).Seconds())
		c.releaseWorker(w, err == nil)
		results <- unitOutcome{idx: idx, worker: w, hedge: hedge, res: res, retryAfter: retryAfter, err: err}
	}()
}

// callExecute performs one unit dispatch under the lease deadline.
func (c *Coordinator) callExecute(ctx context.Context, addr string, ureq UnitRequest) (*UnitResult, time.Duration, error) {
	body, err := json.Marshal(ureq)
	if err != nil {
		return nil, 0, err
	}
	cctx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, addr+"/cluster/v1/execute", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		res, derr := decodeUnitResult(resp.Body, maxUnitReply)
		if derr != nil {
			return nil, 0, fmt.Errorf("cluster: worker %s: bad unit response: %w", addr, derr)
		}
		return res, 0, nil
	case http.StatusServiceUnavailable:
		var hold time.Duration
		if s, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && s > 0 {
			hold = time.Duration(s) * time.Second
		}
		return nil, hold, fmt.Errorf("cluster: worker %s at capacity", addr)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, fmt.Errorf("cluster: worker %s: %s: %s", addr, resp.Status, bytes.TrimSpace(msg))
	}
}

// maxUnitReply bounds a worker's unit reply body.
const maxUnitReply = 8 << 20

// decodeUnitResult reads an untrusted unit reply of at most limit bytes
// and decodes it with one json.Unmarshal; a longer body is an error, not
// a truncated parse. Workers write the reply compact, but indented JSON
// is the same grammar, so either revision's replies decode. Identity,
// HMAC and shard validation happen at banking (handleOutcome).
func decodeUnitResult(r io.Reader, limit int64) (*UnitResult, error) {
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("reply exceeds %d bytes", limit)
	}
	res := new(UnitResult)
	if err := json.Unmarshal(body, res); err != nil {
		return nil, err
	}
	return res, nil
}

// handleOutcome applies one dispatch result to the unit table and
// reports whether a new unit was banked. First writer wins: the first
// structurally valid payload for (cellSeed, start, end) merges and goes
// to onShard (the server's journal hook, nil without a journal); every
// later arrival — hedge twin, duplicated response, re-dispatch of a
// lease that turned out alive — is counted and dropped, so no
// repetition can ever merge twice.
func (c *Coordinator) handleOutcome(cells []*cellAgg, units []*unitState, out unitOutcome, onShard func(cellSeed uint64, start, end int, data []byte)) bool {
	u := units[out.idx]
	u.inflight--
	backoff := func() {
		u.attempts++
		u.notBefore = time.Now().Add(serve.BackoffDelay(
			c.cfg.RetryBase, c.cfg.RetryMax, u.attempts-1,
			cells[u.cellIdx].seed^uint64(u.req.Start)))
	}
	if out.err != nil {
		if out.retryAfter > 0 {
			c.holdWorker(out.worker, out.retryAfter)
			c.met.retryAfterHolds.Inc()
		}
		if !u.banked {
			backoff()
		}
		return false
	}
	cell := cells[u.cellIdx]
	res := out.res
	// Authentication gates banking before structural validation: a shard
	// without a valid tag under the cluster key is untrusted input
	// whatever its shape. Rejection re-dispatches, so a forger (or a
	// keyless stale worker) costs time, never a table bit.
	if len(c.cfg.Key) > 0 && (res == nil || !verifyUnit(c.cfg.Key, res)) {
		c.met.unitsRejectedAuth.Inc()
		c.mu.Lock()
		out.worker.failures++
		c.mu.Unlock()
		c.logf("cluster: rejected unauthenticated shard from %s for cell %x [%d,%d)",
			out.worker.addr, cell.seed, u.req.Start, u.req.End)
		if !u.banked {
			backoff()
		}
		return false
	}
	var sh stats.Shard
	if res == nil || res.Start != u.req.Start || res.End != u.req.End || res.CellSeed != cell.seed ||
		sh.UnmarshalBinary(res.Data) != nil || sh.Trials() != u.req.End-u.req.Start {
		// Byzantine or corrupted payload: it can cost a retry, never a
		// table bit. The rejection counts as a failure of the worker, so
		// the acquire tiebreak steers the retry elsewhere.
		c.met.unitsRejected.Inc()
		c.mu.Lock()
		out.worker.failures++
		c.mu.Unlock()
		c.logf("cluster: rejected invalid shard from %s for cell %x [%d,%d)",
			out.worker.addr, cell.seed, u.req.Start, u.req.End)
		if !u.banked {
			backoff()
		}
		return false
	}
	if u.banked {
		c.met.unitsDuplicate.Inc()
		return false
	}
	u.banked = true
	if out.hedge {
		c.met.hedgesWon.Inc()
	}
	if onShard != nil {
		onShard(cell.seed, u.req.Start, u.req.End, res.Data)
	}
	cell.agg.Merge(&sh)
	c.met.unitsCompleted.Inc()
	c.met.repsMerged.Add(int64(u.req.End - u.req.Start))
	return true
}
