package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/crashpoint"
	"repro/internal/experiment"
	"repro/internal/telemetry"
)

// Config tunes a Server. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// QueueDepth bounds the admission queue; submissions beyond it are
	// shed with 503. Zero means 64.
	QueueDepth int
	// Workers is the number of concurrent job executors. Zero means 4.
	Workers int
	// GridWorkers is the per-grid-job worker count handed to
	// experiment.Runner — within-job parallelism. Zero means 1: the
	// service parallelises across jobs, not inside them, so one huge
	// grid cannot monopolise the machine.
	GridWorkers int
	// DefaultTimeout is the per-job deadline when the spec does not set
	// one. Zero means 1 minute.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines. Zero means 10 minutes.
	MaxTimeout time.Duration
	// MaxRetries is the default retry budget for transient failures
	// (attempts = retries + 1). Zero means 2.
	MaxRetries int
	// RetryBase and RetryMax bound the exponential backoff between
	// attempts. Zero means 100ms and 2s.
	RetryBase, RetryMax time.Duration
	// RetryAfter is the floor of the Retry-After hint returned with shed
	// responses; the actual hint scales with queue occupancy and the
	// observed mean job duration. Zero means 1s.
	RetryAfter time.Duration
	// Journal, when non-nil, is the durable write-ahead job journal:
	// admissions, attempts, shard checkpoints and terminal outcomes are
	// recorded as they happen, so a crash loses at most the progress
	// since the last fsync batch — never an accepted job.
	Journal *Journal
	// Recovery, when non-nil, is a replayed journal (ReplayJournal)
	// applied at construction: terminal jobs are restored into the
	// ledger, unfinished jobs re-queued — with their shard checkpoints —
	// ahead of any new submission.
	Recovery *Recovery
	// Intercept, when non-nil, wraps every job attempt — the chaos
	// harness's injection point.
	Intercept Interceptor
	// Grid, when non-nil, runs grid jobs in place of the local experiment
	// runner: the cluster coordinator's remote executor. Admission,
	// deadlines, retries, the journal and the result cache stay here.
	Grid GridExecutor
	// TraceCapacity bounds the /trace ring buffer (events, not bytes).
	// Zero means telemetry.DefaultTraceCapacity.
	TraceCapacity int
	// Logf, when non-nil, receives one line per notable server event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.GridWorkers <= 0 {
		c.GridWorkers = 1
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = telemetry.DefaultTraceCapacity
	}
	return c
}

// Exec runs one attempt of a job's workload under a context.
type Exec func(ctx context.Context) (any, error)

// Interceptor wraps one job attempt. cancel aborts just this attempt
// (the job's deadline context is its parent); an attempt cancelled this
// way while the job deadline is still live is classified transient and
// retried. Interceptors may panic — the worker's isolation layer
// converts that into a failed attempt, which is exactly what the chaos
// harness exploits.
type Interceptor func(ctx context.Context, cancel context.CancelFunc, spec JobSpec, next Exec) (any, error)

// transientError marks failures worth retrying.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so the worker retries the attempt (with backoff)
// instead of failing the job.
func Transient(err error) error { return &transientError{err: err} }

// IsTransient reports whether err (or anything it wraps) was marked
// Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// PanicError is the failure produced by a panicking job attempt.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Sentinel admission errors.
var (
	// ErrQueueFull: the bounded queue is at capacity; the request was
	// shed.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining: the server is shutting down and refuses new work.
	ErrDraining = errors.New("serve: draining")
)

// CounterSnapshot is the JSON view of the server's monotonic counters.
// Accepted = Completed + Failed + Canceled + still in flight; Shed
// counts refused submissions (never part of Accepted) — together they
// account for every request ever seen, which is the soak suite's
// no-silent-drop ledger.
//
// The snapshot is read straight off the telemetry registry — the same
// instruments /metrics renders — so /statusz and /metrics cannot
// disagree about the ledger.
type CounterSnapshot struct {
	Accepted  int64 `json:"accepted"`
	Shed      int64 `json:"shed"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Retries   int64 `json:"retries"`
	Panics    int64 `json:"panics"`
	CacheHits int64 `json:"cache_hits"`
}

func (m *serveMetrics) snapshot() CounterSnapshot {
	return CounterSnapshot{
		Accepted:  m.accepted.Value(),
		Shed:      m.shed.Value(),
		Completed: m.completed.Value(),
		Failed:    m.failed.Value(),
		Canceled:  m.canceled.Value(),
		Retries:   m.retries.Value(),
		Panics:    m.panics.Value(),
		CacheHits: m.cacheHits.Value(),
	}
}

// retainedTerminalJobs bounds how many terminal jobs a Server keeps
// queryable. Past the bound the job that became terminal first is
// evicted and a GET of its id answers 404, so the ledger's memory stays
// flat over a long-running service instead of growing with every job
// served. Unfinished jobs are never evicted.
const retainedTerminalJobs = 1024

// Server is the resilient simulation job service. Create with New,
// expose Handler over HTTP, stop with Shutdown.
type Server struct {
	cfg Config

	mu   sync.Mutex
	jobs map[string]*Job
	// order lists job ids in admission order. Evicted ids stay in it
	// until the next compaction (retire), so readers skip ids jobs no
	// longer holds.
	order []string
	// terminal lists the retained terminal jobs' ids, in the order they
	// became terminal: the eviction queue of retire.
	terminal []string
	queue    chan *Job
	draining bool
	nextID   int
	cache    resultCache

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// Telemetry: the registry owns every counter/gauge/histogram (the
	// /metrics surface), the tracer owns the bounded run-trace ring (the
	// /trace surface), and the sink is what the engines report through.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	sink   telemetry.Sink
	met    *serveMetrics

	// recovered and cleanShutdown are what /statusz reports of the
	// boot-time replay. The Recovery itself is not kept: it holds every
	// replayed job with its result blob, far more than the bounded
	// ledger retains.
	recovered, cleanShutdown bool

	start time.Time
	mux   *http.ServeMux
}

// New builds a server and starts its worker pool. When cfg.Recovery is
// set, the journal's reconstructed ledger is applied first: unfinished
// jobs re-enter the queue (grown beyond QueueDepth if the backlog
// demands it) before any worker starts, so recovery never sheds what a
// crash interrupted.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	queueCap := cfg.QueueDepth
	if cfg.Recovery != nil {
		if n := cfg.Recovery.UnfinishedJobs(); n > queueCap {
			queueCap = n
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, queueCap),
		baseCtx:    ctx,
		baseCancel: cancel,
		start:      time.Now(),
	}
	s.initTelemetry()
	if cfg.Journal != nil {
		cfg.Journal.SetSink(s.sink)
	}
	if rec := cfg.Recovery; rec != nil {
		s.recovered, s.cleanShutdown = true, rec.CleanShutdown
		s.cfg.Recovery = nil
		s.applyRecovery(rec)
	}
	s.initMux()
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// applyRecovery restores the replayed journal state into the live
// ledger: terminal jobs keep their places in the counters and the
// result cache, and the newest retainedTerminalJobs of them come back
// queryable with their results; unfinished jobs re-enter the queue
// marked Resumed, carrying their shard checkpoints. Runs before the
// workers start; the queue was sized to hold every unfinished job.
func (s *Server) applyRecovery(rec *Recovery) {
	s.met.journalCorrupt.Add(int64(rec.Corrupt))
	s.met.replaySeconds.Set(rec.ReplayDuration.Seconds())
	// Terminal jobs older than the newest retainedTerminalJobs would be
	// evicted as soon as they were restored: skip them up front.
	skipTerminal := -retainedTerminalJobs
	for i := range rec.Jobs {
		if rec.Jobs[i].State.Terminal() {
			skipTerminal++
		}
	}
	resumed := 0
	for i := range rec.Jobs {
		rj := &rec.Jobs[i]
		var n int
		if _, err := fmt.Sscanf(rj.ID, "job-%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
		job := &Job{
			ID: rj.ID, Spec: rj.Spec, key: cacheKey(rj.Spec),
			Attempts: rj.Attempts, prevAttempts: rj.Attempts,
			Enqueued: time.Now(),
		}
		s.met.accepted.Inc()
		s.met.jobsRecovered.Inc()
		if rj.State.Terminal() {
			job.State = rj.State
			job.Error = rj.Error
			if len(rj.Result) > 0 {
				job.Result = rj.Result
			}
			switch rj.State {
			case StateDone:
				s.met.completed.Inc()
				s.cache.put(job.key, rj.Result)
			case StateFailed:
				s.met.failed.Inc()
			case StateCanceled:
				s.met.canceled.Inc()
			}
			if skipTerminal > 0 {
				skipTerminal--
				continue
			}
		} else {
			job.State = StateQueued
			job.Resumed = true
			for _, cps := range rj.Shards {
				s.met.shardsRecovered.Add(int64(len(cps)))
			}
			job.shards = rj.Shards
			s.met.jobsResumed.Inc()
			resumed++
			s.queue <- job
		}
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		if job.State.Terminal() {
			s.retire(job)
		}
	}
	s.trace("journal.replayed", map[string]any{
		"jobs": len(rec.Jobs), "resumed": resumed,
		"records": rec.Records, "corrupt": rec.Corrupt,
		"clean_shutdown": rec.CleanShutdown, "truncated_tail": rec.TruncatedTail,
	})
	s.logf("journal: replayed %d records (%d corrupt skipped), %d jobs (%d resumed)",
		rec.Records, rec.Corrupt, len(rec.Jobs), resumed)
}

// journalErr logs a journal write failure. The job proceeds regardless:
// the service prefers availability over durability, and the failure is
// already counted on simd_journal_errors_total.
func (s *Server) journalErr(err error) {
	if err != nil {
		s.logf("%v", err)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Counters returns a snapshot of the monotonic counters.
func (s *Server) Counters() CounterSnapshot { return s.met.snapshot() }

// Enqueue admits a job, or sheds it: ErrDraining while shutting down,
// ErrQueueFull when the bounded queue is at capacity. A shed submission
// leaves no trace beyond the shed counter — it was never accepted, and
// the caller is told so synchronously. A grid job whose JobKey is in
// the result cache is admitted already done, without a queue slot.
func (s *Server) Enqueue(spec JobSpec) (*Job, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.shed.Inc()
		s.trace("job.shed", map[string]any{"reason": "draining", "kind": string(spec.Kind)})
		return nil, ErrDraining
	}
	s.nextID++
	job := &Job{
		ID:       fmt.Sprintf("job-%06d", s.nextID),
		Spec:     spec,
		State:    StateQueued,
		Enqueued: time.Now(),
		key:      cacheKey(spec),
	}
	if blob, ok := s.cache.m[job.key]; ok {
		s.admitCached(job, blob)
		return job, nil
	}
	select {
	case s.queue <- job:
	default:
		s.nextID-- // the ID was never exposed; keep the sequence dense
		s.met.shed.Inc()
		s.trace("job.shed", map[string]any{"reason": "queue-full", "kind": string(spec.Kind)})
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.met.accepted.Inc()
	if s.cfg.Journal != nil {
		// Barrier write: the 202 must imply the job survives a crash.
		s.journalErr(s.cfg.Journal.AppendAccepted(job.ID, spec))
	}
	s.trace("job.accepted", map[string]any{
		"id": job.ID, "kind": string(spec.Kind), "queue_depth": len(s.queue),
	})
	return job, nil
}

// admitCached records a job answered from the result cache: same
// canonical job, same bits, so it is done on admission and no executor
// runs. It is journaled as accepted and finished like any completed
// job, and stays out of the latency histogram (it never ran). Called
// with s.mu held.
func (s *Server) admitCached(job *Job, blob json.RawMessage) {
	job.State = StateDone
	job.CacheHit = true
	job.Result = blob
	job.Started, job.Finished = job.Enqueued, job.Enqueued
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.retire(job)
	s.met.accepted.Inc()
	s.met.completed.Inc()
	s.met.cacheHits.Inc()
	if s.cfg.Journal != nil {
		s.journalErr(s.cfg.Journal.AppendAccepted(job.ID, job.Spec))
		s.journalErr(s.cfg.Journal.AppendFinished(job.ID, StateDone, "", 0, blob))
	}
	s.trace("job.done", map[string]any{
		"id": job.ID, "state": string(StateDone), "attempts": 0, "seconds": 0.0, "cache_hit": true,
	})
}

// retire enters a job that just became terminal into the eviction
// queue and evicts the oldest terminal job past retainedTerminalJobs.
// Evicted ids are compacted out of order once they make up half of it,
// so both queues cost O(1) amortised per job. Called with s.mu held.
func (s *Server) retire(job *Job) {
	s.terminal = append(s.terminal, job.ID)
	if len(s.terminal) <= retainedTerminalJobs {
		return
	}
	delete(s.jobs, s.terminal[0])
	s.terminal = s.terminal[1:]
	if len(s.order) >= 2*len(s.jobs) {
		live := s.order[:0]
		for _, id := range s.order {
			if _, ok := s.jobs[id]; ok {
				live = append(live, id)
			}
		}
		clear(s.order[len(live):])
		s.order = live
	}
}

// Lookup returns the view of a job by ID.
func (s *Server) Lookup(id string) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, false
	}
	return j.view(), true
}

// Jobs lists the view of every retained job in admission order:
// unfinished jobs and the newest retainedTerminalJobs terminal ones.
func (s *Server) Jobs() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.view())
		}
	}
	return out
}

// Cancel requests cancellation of a job: a queued job is skipped when a
// worker picks it up; a running job's context is cancelled and the
// engines unwind promptly. Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, false
	}
	switch {
	case j.State == StateQueued:
		// No worker owns it yet: cancel takes effect immediately; the
		// worker that eventually pops it from the queue skips terminal
		// jobs.
		j.State = StateCanceled
		j.Error = "canceled by client while queued"
		j.Finished = time.Now()
		j.shards = nil
		s.met.canceled.Inc()
		s.retire(j)
		if s.cfg.Journal != nil {
			// Client intent is ledger truth: a queued-cancel must not
			// resurrect on the next boot.
			s.journalErr(s.cfg.Journal.AppendFinished(j.ID, StateCanceled, j.Error, j.Attempts, nil))
		}
		s.trace("job.done", map[string]any{
			"id": j.ID, "state": string(StateCanceled), "attempts": 0, "seconds": 0.0,
		})
	case !j.State.Terminal():
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.view(), true
}

// worker drains the queue until it is closed, running every accepted
// job to a terminal state — including jobs aborted by shutdown, which
// are marked rather than dropped.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// timeoutFor resolves a spec's per-job deadline against the server's
// default and cap.
func (s *Server) timeoutFor(spec JobSpec) time.Duration {
	d := s.cfg.DefaultTimeout
	if spec.DeadlineMS > 0 {
		d = time.Duration(spec.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// retriesFor resolves a spec's retry budget: 0 = server default,
// negative = no retries.
func (s *Server) retriesFor(spec JobSpec) int {
	switch {
	case spec.MaxRetries > 0:
		return spec.MaxRetries
	case spec.MaxRetries < 0:
		return 0
	default:
		return s.cfg.MaxRetries
	}
}

func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	if job.State.Terminal() {
		// Canceled while queued: already accounted for.
		s.mu.Unlock()
		return
	}
	if s.baseCtx.Err() != nil {
		// Drain deadline already fired: account for the job instead of
		// running it, and let the manifest carry it forward.
		job.State = StateCanceled
		job.Error = "aborted by shutdown before start"
		job.ShutdownAborted = true
		job.Finished = time.Now()
		s.met.canceled.Inc()
		s.trace("job.done", map[string]any{
			"id": job.ID, "state": string(StateCanceled), "attempts": 0, "seconds": 0.0,
		})
		s.mu.Unlock()
		return
	}
	job.State = StateRunning
	job.Started = time.Now()
	timeout := s.timeoutFor(job.Spec)
	jobCtx, cancel := context.WithTimeout(s.baseCtx, timeout)
	job.cancel = cancel
	s.mu.Unlock()
	defer cancel()

	maxRetries := s.retriesFor(job.Spec)
	var (
		result any
		err    error
	)
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		// Attempt numbering continues across restarts for resumed jobs.
		job.Attempts = job.prevAttempts + attempt + 1
		attempts := job.Attempts
		s.mu.Unlock()
		if s.cfg.Journal != nil {
			s.journalErr(s.cfg.Journal.AppendAttempt(job.ID, attempts))
		}
		s.trace("job.attempt", map[string]any{"id": job.ID, "attempt": attempts})
		result, err = s.attempt(jobCtx, job)
		if err == nil || jobCtx.Err() != nil || attempt >= maxRetries || !retryable(err) {
			break
		}
		s.met.retries.Inc()
		delay := BackoffDelay(s.cfg.RetryBase, s.cfg.RetryMax, attempt, job.Spec.Seed)
		s.trace("job.retry", map[string]any{
			"id": job.ID, "attempt": attempt + 1,
			"error": err.Error(), "delay_ms": delay.Milliseconds(),
		})
		s.logf("job %s attempt %d failed (%v), retrying in %v", job.ID, attempt+1, err, delay)
		timer := time.NewTimer(delay)
		select {
		case <-jobCtx.Done():
			timer.Stop()
			err = jobCtx.Err()
		case <-timer.C:
			continue
		}
		break
	}
	s.finish(job, result, err)
}

// retryable: explicit transient failures, and attempts whose own
// context was cancelled while the job deadline had not fired (a
// spurious cancellation — the chaos harness's specialty).
func retryable(err error) bool {
	return IsTransient(err) || errors.Is(err, context.Canceled)
}

// attempt runs one isolated attempt: a fresh attempt context under the
// job deadline, the interceptor (if any) around the executor, and a
// recover that converts any panic on this path into a *PanicError with
// the stack recorded on the job.
func (s *Server) attempt(jobCtx context.Context, job *Job) (out any, err error) {
	attemptCtx, attemptCancel := context.WithCancel(jobCtx)
	defer attemptCancel()
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			s.met.panics.Inc()
			s.trace("job.panic", map[string]any{"id": job.ID, "value": fmt.Sprint(p)})
			s.mu.Lock()
			job.PanicStack = string(stack)
			s.mu.Unlock()
			s.logf("job %s attempt panicked: %v", job.ID, p)
			err = &PanicError{Value: p, Stack: stack}
		}
	}()
	hooks := s.gridHooks(job)
	next := func(ctx context.Context) (any, error) {
		return s.execute(ctx, job.Spec, hooks)
	}
	if s.cfg.Intercept != nil {
		return s.cfg.Intercept(attemptCtx, attemptCancel, job.Spec, next)
	}
	return next(attemptCtx)
}

// gridHooks builds the progress and checkpoint plumbing of one grid-job
// attempt: Progress feeds the job view (cells locally, units for a
// GridExecutor), Recovered replays the shards the job already holds
// (restored at boot or completed by an earlier attempt in this process
// — both merge bit-identically), OnShard journals each newly completed
// shard and remembers it for the next attempt or the next boot.
func (s *Server) gridHooks(job *Job) GridHooks {
	var h GridHooks
	if job.Spec.Kind != JobGrid {
		return h
	}
	done, total := &job.CellsDone, &job.CellsTotal
	if s.cfg.Grid != nil {
		done, total = &job.UnitsDone, &job.UnitsTotal
	}
	h.Progress = func(d, t int) {
		s.mu.Lock()
		*done, *total = d, t
		s.mu.Unlock()
	}
	s.mu.Lock()
	snap := make(map[uint64][]experiment.ShardCheckpoint, len(job.shards))
	for cell, cps := range job.shards {
		snap[cell] = append([]experiment.ShardCheckpoint(nil), cps...)
	}
	s.mu.Unlock()
	if len(snap) > 0 {
		h.Recovered = func(cellSeed uint64) []experiment.ShardCheckpoint { return snap[cellSeed] }
	}
	if s.cfg.Journal != nil {
		h.OnShard = func(cell uint64, start, end int, data []byte) {
			s.journalErr(s.cfg.Journal.AppendShard(job.ID, cell, start, end, data))
			crashpoint.Hit("journal.shard")
			s.mu.Lock()
			if job.shards == nil {
				job.shards = make(map[uint64][]experiment.ShardCheckpoint)
			}
			job.shards[cell] = append(job.shards[cell], experiment.ShardCheckpoint{Start: start, End: end, Data: data})
			s.mu.Unlock()
		}
	}
	return h
}

// finish classifies the job's terminal state, observes the job's wall
// time into the latency histogram and emits the terminal trace event.
func (s *Server) finish(job *Job, result any, err error) {
	s.mu.Lock()
	job.Finished = time.Now()
	switch {
	case err == nil:
		job.State = StateDone
		job.Result = result
		s.met.completed.Inc()
	case job.cancelRequested:
		job.State = StateCanceled
		job.Error = "canceled by client"
		s.met.canceled.Inc()
	case s.baseCtx.Err() != nil:
		job.State = StateCanceled
		job.Error = "aborted by shutdown: " + err.Error()
		job.ShutdownAborted = true
		s.met.canceled.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		job.State = StateFailed
		job.Error = fmt.Sprintf("deadline exceeded after %v: %v", s.timeoutFor(job.Spec), err)
		s.met.failed.Inc()
	default:
		job.State = StateFailed
		job.Error = err.Error()
		s.met.failed.Inc()
	}
	id, state, attempts := job.ID, job.State, job.Attempts
	errMsg := job.Error
	aborted := job.ShutdownAborted
	var resultJSON json.RawMessage
	if state == StateDone && job.Result != nil {
		if blob, merr := json.Marshal(job.Result); merr == nil {
			resultJSON = blob
			s.cache.put(job.key, blob)
		}
	}
	// Terminal: the banked checkpoints are no longer needed. A job
	// aborted by shutdown stays out of the eviction queue: it is
	// resumable, and the shutdown manifest must list it.
	job.shards = nil
	if !aborted {
		s.retire(job)
	}
	var seconds float64
	if !job.Started.IsZero() {
		seconds = job.Finished.Sub(job.Started).Seconds()
	}
	s.mu.Unlock()

	if s.cfg.Journal != nil && !aborted {
		// Barrier write for clean terminal outcomes only. A job aborted by
		// shutdown deliberately gets NO finished record: its absence is
		// what makes the next boot resume the job from its checkpoints.
		s.journalErr(s.cfg.Journal.AppendFinished(id, state, errMsg, attempts, resultJSON))
	}

	s.met.latency.Observe(seconds)
	s.trace("job.done", map[string]any{
		"id": id, "state": string(state), "attempts": attempts, "seconds": seconds,
	})
}

// splitmix is the SplitMix64 finaliser, used for deterministic backoff
// jitter.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// BackoffDelay is exponential backoff with deterministic jitter: the
// delay for attempt n is in [d/2, d) where d = base·2ⁿ capped at max.
// Jitter derives from (seed, attempt), so a job's retry schedule is
// reproducible while distinct jobs decorrelate. Exported so the cluster
// coordinator's unit re-dispatch and worker registration loops share the
// same retry law as the job server.
func BackoffDelay(base, max time.Duration, attempt int, seed uint64) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if d <= 1 {
		return d
	}
	half := d / 2
	j := time.Duration(splitmix(seed^uint64(attempt)*0x9e3779b97f4a7c15) % uint64(half))
	return half + j
}

// Shutdown drains the server: admission stops immediately (submissions
// shed with ErrDraining), workers keep executing the accepted backlog
// until ctx fires, at which point every remaining job is aborted
// through the base context and marked ShutdownAborted. When all workers
// have returned — promptly after the abort, because the engines poll
// their contexts — the unfinished-job report is built and a
// journal_clean_shutdown record is appended (when journalling is on).
// Unfinished jobs need no separate persistence: their accepted records
// sit in the journal without finished records, which is exactly the
// state the next boot resumes. Shutdown therefore completes within the
// drain deadline plus the engines' cancellation latency, and every
// accepted job is either in a clean terminal state or resumable from
// the journal.
func (s *Server) Shutdown(ctx context.Context) (Manifest, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Manifest{}, errors.New("serve: already shut down")
	}
	s.draining = true
	close(s.queue)
	backlog := len(s.queue)
	s.mu.Unlock()
	s.trace("drain.start", map[string]any{"backlog": backlog})

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	drained := true
	select {
	case <-done:
	case <-ctx.Done():
		drained = false
		s.logf("drain deadline fired, aborting in-flight jobs")
		s.baseCancel()
		<-done
	}
	s.baseCancel()

	m := Manifest{Drained: drained}
	s.mu.Lock()
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if ok && (j.ShutdownAborted || !j.State.Terminal()) {
			m.Jobs = append(m.Jobs, ManifestEntry{
				ID: j.ID, Spec: j.Spec, State: j.State,
				Attempts: j.Attempts, Error: j.Error,
			})
		}
	}
	s.mu.Unlock()

	if drained {
		s.met.drainsClean.Inc()
	} else {
		s.met.drainsAborted.Inc()
	}
	s.met.unfinishedJobs.Add(int64(len(m.Jobs)))
	s.trace("drain.end", map[string]any{"drained": drained, "unfinished_jobs": len(m.Jobs)})

	if s.cfg.Journal != nil {
		crashpoint.Hit("drain")
		s.journalErr(s.cfg.Journal.AppendShutdown(drained, len(m.Jobs)))
		s.logf("journal: clean shutdown recorded, %d unfinished jobs resumable", len(m.Jobs))
	}
	return m, nil
}

// Close stops the server the way a crash would: admission stops, every
// queued or running job is aborted through the base context, and
// nothing more is journaled — aborted jobs get no finished record and
// the journal gets no clean-shutdown record — so the next boot resumes
// exactly as after a kill -9. Close after Shutdown only waits.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
}

// --- HTTP layer ---

func (s *Server) initMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.registerDebug(mux)
	s.mux = mux
}

// Handler returns the HTTP API:
//
//	POST   /v1/jobs      submit a JobSpec   -> 202 View | 400 | 503+Retry-After
//	GET    /v1/jobs      list job views
//	GET    /v1/jobs/{id} one job view (result once done)
//	DELETE /v1/jobs/{id} cancel
//	GET    /healthz      process liveness (always 200 while serving)
//	GET    /readyz       admission readiness (503 when saturated/draining)
//	GET    /statusz      counters and queue status
//	GET    /metrics      Prometheus text exposition of the registry
//	GET    /trace        run-trace ring buffer as JSONL (?n= newest n)
//	GET    /debug/pprof  the standard Go profiling endpoints
func (s *Server) Handler() http.Handler { return s.mux }

// WriteJSON writes v as the indented JSON body of a response with the
// given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
	Shed  bool   `json:"shed,omitempty"`
}

// decodeSpec decodes a submitted JobSpec: unknown fields are an error,
// so a misspelt knob is a 400 rather than a silently ignored field.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}
	job, err := s.Enqueue(spec)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		// Load shed: explicit, counted, and with a retry hint — the
		// contract overload buys instead of an unbounded queue.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
		WriteJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), Shed: true})
		return
	case err != nil:
		WriteJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	s.mu.Lock()
	v := job.view()
	s.mu.Unlock()
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	WriteJSON(w, http.StatusAccepted, v)
}

// retryAfterHint estimates how many seconds a shed client should wait
// before retrying, from live state rather than a constant: the observed
// mean job duration (the latency histogram) times the queue occupancy
// ahead of the retry, spread over the worker pool. The configured
// RetryAfter is the floor (and the answer before any job has finished);
// 60s is the ceiling so a burst of slow jobs cannot push clients away
// for minutes.
func (s *Server) retryAfterHint() int {
	floor := max(1, int((s.cfg.RetryAfter+time.Second-1)/time.Second)) // whole seconds, rounded up
	snap := s.met.latency.Snapshot()
	if snap.Count == 0 {
		return floor
	}
	mean := snap.Sum / float64(snap.Count)
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	est := int(math.Ceil(mean * float64(len(s.queue)+1) / float64(workers)))
	if est < floor {
		return floor
	}
	if est > 60 {
		return 60
	}
	return est
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Lookup(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// Ready reports whether the server can accept a job right now: not
// draining and the bounded queue below capacity. This is what flips
// /readyz to 503 under overload so a load balancer stops routing here
// before submissions start shedding.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && len(s.queue) < cap(s.queue)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("not ready\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

// JournalStatus is the /statusz journal section: append-side health of
// the durable job journal (absent when journalling is off).
type JournalStatus struct {
	Enabled        bool  `json:"enabled"`
	SizeBytes      int64 `json:"size_bytes"`
	Records        int64 `json:"records"`
	Errors         int64 `json:"errors"`
	CorruptRecords int64 `json:"corrupt_records"`
}

// RecoveryStatus is the /statusz recovery section: what the boot-time
// journal replay reconstructed.
type RecoveryStatus struct {
	JobsRecovered   int64   `json:"jobs_recovered"`
	JobsResumed     int64   `json:"jobs_resumed"`
	ShardsRecovered int64   `json:"shards_recovered"`
	CleanShutdown   bool    `json:"clean_shutdown"`
	ReplaySeconds   float64 `json:"replay_seconds"`
}

// Status is the /statusz body.
type Status struct {
	Counters  CounterSnapshot `json:"counters"`
	QueueLen  int             `json:"queue_len"`
	QueueCap  int             `json:"queue_cap"`
	Workers   int             `json:"workers"`
	Draining  bool            `json:"draining"`
	UptimeSec int64           `json:"uptime_sec"`
	Journal   *JournalStatus  `json:"journal,omitempty"`
	Recovery  *RecoveryStatus `json:"recovery,omitempty"`
	// Store is the tiered-checkpoint-store counter ledger, keyed by the
	// /metrics family name and read off the same registry instruments, so
	// the two surfaces cannot disagree. Present once any store-configured
	// job has run (any counter non-zero).
	Store map[string]int64 `json:"store,omitempty"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Status())
}

// Status snapshots the /statusz body.
func (s *Server) Status() Status {
	s.mu.Lock()
	st := Status{
		Counters:  s.met.snapshot(),
		QueueLen:  len(s.queue),
		QueueCap:  cap(s.queue),
		Workers:   s.cfg.Workers,
		Draining:  s.draining,
		UptimeSec: int64(time.Since(s.start).Seconds()),
	}
	s.mu.Unlock()
	if s.cfg.Journal != nil {
		st.Journal = &JournalStatus{
			Enabled:        true,
			SizeBytes:      s.cfg.Journal.Size(),
			Records:        s.reg.Counter(metricJournalRecords, "").Value(),
			Errors:         s.reg.Counter(metricJournalErrors, "").Value(),
			CorruptRecords: s.met.journalCorrupt.Value(),
		}
	}
	storeLedger := map[string]int64{}
	total := int64(0)
	for _, name := range experiment.StoreCounterNames() {
		v := s.reg.Counter(name, "").Value()
		storeLedger[name] = v
		total += v
	}
	if total > 0 {
		st.Store = storeLedger
	}
	if s.recovered {
		st.Recovery = &RecoveryStatus{
			JobsRecovered:   s.met.jobsRecovered.Value(),
			JobsResumed:     s.met.jobsResumed.Value(),
			ShardsRecovered: s.met.shardsRecovered.Value(),
			CleanShutdown:   s.cleanShutdown,
			ReplaySeconds:   s.met.replaySeconds.Value(),
		}
	}
	return st
}
