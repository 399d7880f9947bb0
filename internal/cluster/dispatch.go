// The remote grid executor: serve's job worker running a grid attempt
// owns all unit state and drives the assign → dispatch → bank loop;
// dispatch goroutines do HTTP only and report on a channel, so every
// invariant (lease expiry → re-dispatch, hedging, first-writer-wins
// dedup, structural validation, exact rep accounting) lives in
// single-threaded code. Admission, deadlines, the journal and the
// result cache are the server's; banked shards go out through its
// OnShard hook and resumed ones come in through Recovered.
//
// One dispatch carries a run of units, sized so the HTTP round trip is
// paid once per run rather than once per unit, while each unit keeps
// its own identity, result, validation and backoff: leases and hedge
// timers scale with the units a dispatch carries, and a bad result
// costs only its own unit.
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
	"time"

	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/telemetry"
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
// the attempt's goroutine touches it.
type unitState struct {
	cellIdx int
	addr    UnitAddr

	banked   bool
	inflight int
	attempts int
	// lease is the unit's latest primary dispatch (hedge timing and
	// hedge-target exclusion); nil until the first.
	lease *lease
	// notBefore is the re-dispatch backoff gate.
	notBefore time.Time
}

// idle reports whether the unit can go out in a primary dispatch now.
func (u *unitState) idle(now time.Time) bool {
	return !u.banked && u.inflight == 0 && !now.Before(u.notBefore)
}

// lease is one primary dispatch: its units, the worker it went to and
// when, and whether it was hedged (at most once).
type lease struct {
	idxs   []int
	addr   string
	sentAt time.Time
	hedged bool
}

// dispatchOutcome is one dispatch's report back to the attempt
// goroutine: res[k], when present, answers unit idxs[k].
type dispatchOutcome struct {
	idxs   []int
	worker *workerState
	hedge  bool
	res    []UnitResult
	err    error
}

// attempt is one grid attempt's dispatch state. Only the goroutine
// running executeGrid touches it; dispatch goroutines report on
// results.
type attempt struct {
	c       *Coordinator
	ctx     context.Context
	job     UnitRequest // the job fields every dispatch shares
	cells   []*cellAgg
	units   []*unitState
	onShard func(cellSeed uint64, start, end int, data []byte)

	results     chan dispatchOutcome
	outstanding int
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
	a := &attempt{
		c: c, ctx: ctx,
		job: UnitRequest{
			Proto: ProtocolVersion, Version: c.cfg.Version,
			Table: tspec.ID, Seed: spec.Seed, Store: spec.Store,
		},
		onShard: hooks.OnShard,
		results: make(chan dispatchOutcome),
	}
	// Cells in table order over the layout every grid path shares, so
	// the folded table is positionally the one a local run builds.
	tbl := tspec.NewTable(reps, tspec.Schemes())
	for ri := range tbl.Rows {
		row := &tbl.Rows[ri]
		for ci, cr := range row.Cells {
			a.cells = append(a.cells, &cellAgg{
				row: row, col: ci,
				seed: experiment.CellSeed(spec.Seed, tspec.ID, row.U, row.Lambda, cr.Scheme),
			})
		}
	}

	// Units cover only the gaps left after merging the shards the job
	// already banked (none on a first attempt) through the same
	// validation gauntlet the local resume path applies.
	recovered := 0
	for idx, cell := range a.cells {
		var cps []experiment.ShardCheckpoint
		if hooks.Recovered != nil {
			cps = hooks.Recovered(cell.seed)
		}
		rec, _, gaps := experiment.RecoverInto(&cell.agg, cps, reps, unitReps)
		recovered += rec
		for _, g := range gaps {
			a.units = append(a.units, &unitState{
				cellIdx: idx,
				addr:    UnitAddr{Col: cell.col, U: cell.row.U, Lambda: cell.row.Lambda, Start: g.Start, End: g.End},
			})
		}
	}
	c.met.repsRecovered.Add(int64(recovered))
	hooks.Progress(0, len(a.units))

	banked := 0
	bank := func(out dispatchOutcome) {
		if n := a.handleOutcome(out); n > 0 {
			banked += n
			hooks.Progress(banked, len(a.units))
		}
	}
	ticker := time.NewTicker(assignTick)
	defer ticker.Stop()
loop:
	for banked < len(a.units) {
		a.assign()
		select {
		case out := <-a.results:
			bank(out)
		case <-ticker.C:
		case <-ctx.Done():
			break loop
		}
	}
	// Drain in-flight dispatches before deciding the outcome: a unit
	// completing during the drain still banks (and with it, possibly,
	// the job).
	for a.outstanding > 0 {
		bank(<-a.results)
	}
	if banked < len(a.units) {
		return serve.GridResult{}, fmt.Errorf("cluster: %d/%d units banked: %w", banked, len(a.units), ctx.Err())
	}
	c.logf("cluster: grid %s seed %d done (%d units)", tspec.ID, spec.Seed, len(a.units))
	for _, cell := range a.cells {
		cell.row.Cells[cell.col].Done = true
		cell.row.Cells[cell.col].Summary = cell.agg.Summary()
	}
	return serve.GridResultFromTable(tbl), nil
}

// groupSize is how many units a primary dispatch carries this pass:
// ⌈idle / (2·slots)⌉ over the idle units and the live workers' summed
// slots. A fresh job therefore gives every slot at least two
// dispatches, so a slow worker can still be rebalanced, and the size
// falls to one as the job drains.
func (a *attempt) groupSize(now time.Time) int {
	idle := 0
	for _, u := range a.units {
		if u.idle(now) {
			idle++
		}
	}
	_, slots := a.c.live()
	if slots == 0 {
		return 1
	}
	return max(1, (idle+2*slots-1)/(2*slots))
}

// assign scans the unit table once and dispatches everything eligible:
// runs of idle units past their backoff, in table order, to the best
// worker, and single-inflight dispatches past their hedge threshold to
// a second worker.
func (a *attempt) assign() {
	c := a.c
	now := time.Now()
	n := a.groupSize(now)
	for i, u := range a.units {
		switch {
		case u.idle(now):
			w := c.acquireWorker("")
			if w == nil {
				return // no worker is eligible for anything right now
			}
			idxs := []int{i}
			for j := i + 1; j < len(a.units) && len(idxs) < n; j++ {
				if a.units[j].idle(now) {
					idxs = append(idxs, j)
				}
			}
			a.launch(idxs, w, false)
		case !u.banked && u.inflight == 1 && u.lease != nil && !u.lease.hedged && c.cfg.HedgeAfter > 0 &&
			now.Sub(u.lease.sentAt) > time.Duration(len(u.lease.idxs))*c.cfg.HedgeAfter:
			w := c.acquireWorker(u.lease.addr)
			if w == nil {
				continue // no second worker available; keep waiting
			}
			u.lease.hedged = true
			var idxs []int
			for _, k := range u.lease.idxs {
				if !a.units[k].banked {
					idxs = append(idxs, k)
				}
			}
			c.met.unitsHedged.Add(int64(len(idxs)))
			a.launch(idxs, w, true)
		}
	}
}

// launch starts one dispatch goroutine carrying units idxs to worker w.
// A primary dispatch becomes its units' lease.
func (a *attempt) launch(idxs []int, w *workerState, hedge bool) {
	c := a.c
	req := a.job
	req.UnitAddr = a.units[idxs[0]].addr
	for _, k := range idxs[1:] {
		req.More = append(req.More, a.units[k].addr)
	}
	var l *lease
	if !hedge {
		l = &lease{idxs: idxs, addr: w.addr, sentAt: time.Now()}
	}
	for _, k := range idxs {
		u := a.units[k]
		u.inflight++
		if l != nil {
			if u.attempts > 0 {
				c.met.unitsRedispatched.Inc()
			}
			u.lease = l
		}
	}
	a.outstanding++
	c.met.dispatches.Inc()
	c.met.unitsDispatched.Add(int64(len(idxs)))
	t0 := time.Now()
	go func() {
		res, err := c.callExecute(a.ctx, w.addr, req, len(idxs))
		c.met.unitSeconds.Observe(time.Since(t0).Seconds())
		c.releaseWorker(w, len(idxs), err)
		a.results <- dispatchOutcome{idxs: idxs, worker: w, hedge: hedge, res: res, err: err}
	}()
}

// callExecute performs one dispatch of n units under their lease
// deadline, n × LeaseTimeout. Any status but 200 fails the dispatch,
// including a worker's 503 past its inflight bound.
func (c *Coordinator) callExecute(ctx context.Context, addr string, ureq UnitRequest, n int) ([]UnitResult, error) {
	body, err := json.Marshal(ureq)
	if err != nil {
		return nil, err
	}
	cctx, cancel := context.WithTimeout(ctx, time.Duration(n)*c.cfg.LeaseTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, addr+"/cluster/v1/execute", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: worker %s: %s: %s", addr, resp.Status, bytes.TrimSpace(msg))
	}
	res, err := decodeUnitResults(resp.Body, int64(n)*maxUnitReply)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: bad unit response: %w", addr, err)
	}
	return res, nil
}

// maxUnitReply bounds a worker's reply body per unit the dispatch
// carries.
const maxUnitReply = 8 << 20

// decodeUnitResults reads an untrusted dispatch reply of at most limit
// bytes — a JSON array of unit results — and decodes it with one
// json.Unmarshal; a longer body is an error, not a truncated parse.
// Alignment with the request, identity, HMAC and shard validation
// happen at banking (handleOutcome), one unit at a time.
func decodeUnitResults(r io.Reader, limit int64) ([]UnitResult, error) {
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("reply exceeds %d bytes", limit)
	}
	var res []UnitResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return res, nil
}

// handleOutcome applies one dispatch's report to the unit table and
// returns how many units it newly banked. A failed dispatch fails every
// unit it carried; otherwise each unit is judged on its own result, and
// a missing, forged or invalid one re-dispatches that unit alone.
func (a *attempt) handleOutcome(out dispatchOutcome) int {
	a.outstanding--
	banked := 0
	for k, idx := range out.idxs {
		u := a.units[idx]
		u.inflight--
		switch {
		case out.err != nil:
			if !u.banked {
				a.backoff(u)
			}
		case k >= len(out.res):
			a.reject(u, out.worker, a.c.met.unitsRejected, "missing")
		case a.bankUnit(u, out.worker, out.hedge, &out.res[k]):
			banked++
		}
	}
	return banked
}

// bankUnit validates one unit's result and reports whether it banked
// the unit. First writer wins: the first structurally valid payload for
// (cellSeed, start, end) merges and goes to onShard (the server's
// journal hook, nil without a journal); every later arrival — hedge
// twin, duplicated response, re-dispatch of a lease that turned out
// alive — is counted and dropped, so no repetition can ever merge
// twice.
func (a *attempt) bankUnit(u *unitState, w *workerState, hedge bool, res *UnitResult) bool {
	c := a.c
	cell := a.cells[u.cellIdx]
	// Authentication gates banking before structural validation: a shard
	// without a valid tag under the cluster key is untrusted input
	// whatever its shape. Rejection re-dispatches, so a forger (or a
	// keyless stale worker) costs time, never a table bit.
	if len(c.cfg.Key) > 0 && !verifyUnit(c.cfg.Key, res) {
		a.reject(u, w, c.met.unitsRejectedAuth, "unauthenticated")
		return false
	}
	var sh stats.Shard
	if res.Start != u.addr.Start || res.End != u.addr.End || res.CellSeed != cell.seed ||
		sh.UnmarshalBinary(res.Data) != nil || sh.Trials() != u.addr.End-u.addr.Start {
		// Byzantine, corrupted or misaligned payload: it can cost a
		// retry, never a table bit.
		a.reject(u, w, c.met.unitsRejected, "invalid")
		return false
	}
	if u.banked {
		c.met.unitsDuplicate.Inc()
		return false
	}
	u.banked = true
	if hedge {
		c.met.hedgesWon.Inc()
	}
	if a.onShard != nil {
		a.onShard(cell.seed, u.addr.Start, u.addr.End, res.Data)
	}
	cell.agg.Merge(&sh)
	c.met.unitsCompleted.Inc()
	c.met.repsMerged.Add(int64(u.addr.End - u.addr.Start))
	return true
}

// reject counts a unit result refused before banking against its
// worker — so the acquire tiebreak steers the retry elsewhere — and
// backs the unit off unless another dispatch already banked it.
func (a *attempt) reject(u *unitState, w *workerState, m *telemetry.Counter, why string) {
	c := a.c
	m.Inc()
	c.mu.Lock()
	w.failures++
	c.mu.Unlock()
	c.logf("cluster: rejected %s shard from %s for cell %x [%d,%d)",
		why, w.addr, a.cells[u.cellIdx].seed, u.addr.Start, u.addr.End)
	if !u.banked {
		a.backoff(u)
	}
}

// backoff gates the unit's next dispatch under the serve retry law,
// jittered by the unit's own identity.
func (a *attempt) backoff(u *unitState) {
	u.attempts++
	u.notBefore = time.Now().Add(serve.BackoffDelay(
		a.c.cfg.RetryBase, a.c.cfg.RetryMax, u.attempts-1,
		a.cells[u.cellIdx].seed^uint64(u.addr.Start)))
}
