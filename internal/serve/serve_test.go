package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/storage"
)

// testView mirrors serve.View with a raw result for kind-specific
// decoding.
type testView struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	State      serve.JobState  `json:"state"`
	Attempts   int             `json:"attempts"`
	Error      string          `json:"error"`
	Panicked   bool            `json:"panicked"`
	CellsDone  int             `json:"cells_done"`
	CellsTotal int             `json:"cells_total"`
	CacheHit   bool            `json:"cache_hit"`
	Result     json.RawMessage `json:"result"`
}

func submit(t *testing.T, ts *httptest.Server, spec string) (testView, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v testView
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
			t.Fatalf("bad accept body %q: %v", buf.String(), err)
		}
	}
	return v, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) testView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", id, resp.StatusCode)
	}
	var v testView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) testView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, ts, id)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _ = srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, ts
}

func TestGridJobEndToEndMatchesDirectRunner(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 2})
	v, resp := submit(t, ts, `{"kind":"grid","table":"1a","reps":30,"seed":5,"deadline_ms":30000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	got := waitTerminal(t, ts, v.ID, 30*time.Second)
	if got.State != serve.StateDone {
		t.Fatalf("grid job ended %s: %s", got.State, got.Error)
	}
	var res serve.GridResult
	if err := json.Unmarshal(got.Result, &res); err != nil {
		t.Fatal(err)
	}

	spec, err := experiment.TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.Runner{Reps: 30, Seed: 5, Workers: 1}.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want.Rows) {
		t.Fatalf("result has %d rows, want %d", len(res.Rows), len(want.Rows))
	}
	for i, row := range want.Rows {
		for j, cell := range row.Cells {
			gotCell := res.Rows[i].Cells[j]
			if !gotCell.Done {
				t.Fatalf("row %d cell %d not done", i, j)
			}
			if float64(gotCell.P) != cell.P {
				t.Errorf("row %d cell %d P=%v want %v", i, j, gotCell.P, cell.P)
			}
			wantE := cell.E
			if math.IsNaN(wantE) {
				wantE = 0 // NaN marshals as null, decodes as zero
			}
			if float64(gotCell.E) != wantE {
				t.Errorf("row %d cell %d E=%v want %v", i, j, gotCell.E, wantE)
			}
		}
	}
	if got.CellsDone == 0 || got.CellsDone != got.CellsTotal {
		t.Errorf("progress %d/%d, want full", got.CellsDone, got.CellsTotal)
	}
}

func TestQueueFullShedsWith503AndRetryAfter(t *testing.T) {
	block := make(chan struct{})
	defer func() {
		select {
		case <-block:
		default:
			close(block)
		}
	}()
	srv, ts := newTestServer(t, serve.Config{
		QueueDepth: 1, Workers: 1,
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return next(ctx)
		},
	})

	single := `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":1}`
	a, resp := submit(t, ts, single)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	// Wait until the worker holds job A so the queue slot is free again.
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, ts, a.ID).State != serve.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	b, resp := submit(t, ts, single)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d", resp.StatusCode)
	}

	// Queue is now full: the next submission must shed, loudly.
	_, resp = submit(t, ts, single)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload submit status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if c := srv.Counters(); c.Shed != 1 || c.Accepted != 2 {
		t.Errorf("counters accepted=%d shed=%d, want 2/1", c.Accepted, c.Shed)
	}

	// readyz flips under overload, before admission starts shedding more.
	if rz, err := http.Get(ts.URL + "/readyz"); err != nil || rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz under overload: %v %v", rz.StatusCode, err)
	} else {
		rz.Body.Close()
	}
	// healthz stays green: the process is alive, just saturated.
	if hz, err := http.Get(ts.URL + "/healthz"); err != nil || hz.StatusCode != http.StatusOK {
		t.Errorf("healthz under overload: %v %v", hz.StatusCode, err)
	} else {
		hz.Body.Close()
	}

	close(block)
	if v := waitTerminal(t, ts, a.ID, 10*time.Second); v.State != serve.StateDone {
		t.Errorf("job A ended %s: %s", v.State, v.Error)
	}
	if v := waitTerminal(t, ts, b.ID, 10*time.Second); v.State != serve.StateDone {
		t.Errorf("job B ended %s: %s", v.State, v.Error)
	}
	if rz, err := http.Get(ts.URL + "/readyz"); err != nil || rz.StatusCode != http.StatusOK {
		t.Errorf("readyz after release: %v %v", rz.StatusCode, err)
	} else {
		rz.Body.Close()
	}
}

func TestPerJobDeadlineFailsOversizedJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	// A full-size grid at 10⁶ reps/cell takes far longer than 150ms; the
	// deadline must cut it off through the engine's context polling.
	v, resp := submit(t, ts, `{"kind":"grid","table":"1a","reps":1000000,"seed":1,"deadline_ms":150,"max_retries":-1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	start := time.Now()
	got := waitTerminal(t, ts, v.ID, 10*time.Second)
	if got.State != serve.StateFailed {
		t.Fatalf("oversized job ended %s, want failed", got.State)
	}
	if !strings.Contains(got.Error, "deadline exceeded") {
		t.Errorf("error %q does not name the deadline", got.Error)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("deadline enforcement took %v", e)
	}
}

func TestPanicIsolationRecordsStackAndSparesProcess(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{
		Workers: 1,
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
			if spec.Seed == 42 {
				panic("injected: worker bug")
			}
			return next(ctx)
		},
	})
	bad, resp := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":42}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	v := waitTerminal(t, ts, bad.ID, 10*time.Second)
	if v.State != serve.StateFailed || !v.Panicked {
		t.Fatalf("panicking job: state=%s panicked=%v error=%q", v.State, v.Panicked, v.Error)
	}
	if !strings.Contains(v.Error, "injected: worker bug") {
		t.Errorf("error %q does not carry the panic value", v.Error)
	}
	if srv.Counters().Panics == 0 {
		t.Error("panic counter not incremented")
	}
	// The process (and the worker) survive: the next job runs fine.
	ok, _ := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":1}`)
	if v := waitTerminal(t, ts, ok.ID, 10*time.Second); v.State != serve.StateDone {
		t.Errorf("follow-up job ended %s: %s", v.State, v.Error)
	}
}

func TestTransientFailuresAreRetriedWithBackoff(t *testing.T) {
	fails := 2
	srv, ts := newTestServer(t, serve.Config{
		Workers: 1, MaxRetries: 3,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
			if fails > 0 {
				fails--
				return nil, serve.Transient(errors.New("flaky backend"))
			}
			return next(ctx)
		},
	})
	v, _ := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":9}`)
	got := waitTerminal(t, ts, v.ID, 10*time.Second)
	if got.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", got.State, got.Error)
	}
	if got.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (two transient failures + success)", got.Attempts)
	}
	if c := srv.Counters(); c.Retries != 2 {
		t.Errorf("retry counter = %d, want 2", c.Retries)
	}
}

func TestRetryCapHonoredUnderPersistentTransients(t *testing.T) {
	// A backend that never stops failing transiently must not be retried
	// forever: the budget is MaxRetries, so the job burns exactly
	// MaxRetries+1 attempts and then fails for good.
	var calls int32
	srv, ts := newTestServer(t, serve.Config{
		Workers: 1, MaxRetries: 3,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
			atomic.AddInt32(&calls, 1)
			return nil, serve.Transient(errors.New("backend still down"))
		},
	})
	v, _ := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":6}`)
	got := waitTerminal(t, ts, v.ID, 10*time.Second)
	if got.State != serve.StateFailed {
		t.Fatalf("always-transient job ended %s, want failed", got.State)
	}
	if got.Attempts != 4 {
		t.Errorf("attempts = %d, want MaxRetries+1 = 4", got.Attempts)
	}
	if n := atomic.LoadInt32(&calls); n != 4 {
		t.Errorf("backend called %d times, want exactly 4 — retry cap not honored", n)
	}
	if c := srv.Counters(); c.Retries != 3 {
		t.Errorf("retry counter = %d, want 3", c.Retries)
	}
	if !strings.Contains(got.Error, "backend still down") {
		t.Errorf("terminal error %q lost the transient cause", got.Error)
	}
}

func TestNegativeMaxRetriesMeansNoRetries(t *testing.T) {
	// A spec's max_retries < 0 opts out of retries (0 is the server
	// default): a transient failure ends the job after its one attempt.
	var calls int32
	srv, ts := newTestServer(t, serve.Config{
		Workers: 1, MaxRetries: 3,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
			atomic.AddInt32(&calls, 1)
			return nil, serve.Transient(errors.New("flaky backend"))
		},
	})
	v, _ := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":6,"max_retries":-1}`)
	got := waitTerminal(t, ts, v.ID, 10*time.Second)
	if got.State != serve.StateFailed {
		t.Fatalf("transient job with max_retries -1 ended %s, want failed", got.State)
	}
	if got.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", got.Attempts)
	}
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Errorf("backend called %d times, want 1", n)
	}
	if c := srv.Counters(); c.Retries != 0 {
		t.Errorf("retry counter = %d, want 0", c.Retries)
	}
}

func TestRetryAfterIsFloorWithoutLatencyHistory(t *testing.T) {
	// Before any job has completed there is no latency history, so the
	// shed hint is exactly the configured floor — regardless of depth.
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestServer(t, serve.Config{
		QueueDepth: 2, Workers: 1, RetryAfter: 2 * time.Second,
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	for i := 0; i < 3; i++ { // 1 running + 2 queued
		if _, resp := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":1}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d status %d", i, resp.StatusCode)
		}
	}
	_, resp := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload submit status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want the configured 2s floor (no latency history yet)", got)
	}
}

func TestRetryAfterScalesWithQueueDepthAndObservedLatency(t *testing.T) {
	// Once jobs have completed, the shed hint is live state — observed
	// mean duration × queue occupancy over the worker pool — not the
	// configured constant.
	const jobTime = 400 * time.Millisecond
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestServer(t, serve.Config{
		QueueDepth: 6, Workers: 1, RetryAfter: time.Second,
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
			if spec.Seed == 1 { // the calibration job: slow but finite
				time.Sleep(jobTime)
				return next(ctx)
			}
			select { // everything else blocks until the test ends
			case <-block:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	v, _ := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":1}`)
	if got := waitTerminal(t, ts, v.ID, 10*time.Second); got.State != serve.StateDone {
		t.Fatalf("calibration job ended %s: %s", got.State, got.Error)
	}
	for i := 0; i < 7; i++ { // 1 running + 6 queued: full
		if _, resp := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":2}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d status %d", i, resp.StatusCode)
		}
	}
	_, resp := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload submit status %d, want 503", resp.StatusCode)
	}
	hint, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	// mean ≥ 0.4s, 6 queued ahead + 1, 1 worker → at least ceil(0.4×7)=3.
	if min := int(math.Ceil(jobTime.Seconds() * 7)); hint < min {
		t.Errorf("Retry-After = %d, want ≥ %d (mean ≥ %v × 7 waiters / 1 worker)", hint, min, jobTime)
	}
	if hint > 60 {
		t.Errorf("Retry-After = %d exceeds the 60s ceiling", hint)
	}
}

func TestSpuriousAttemptCancellationIsRetried(t *testing.T) {
	first := true
	_, ts := newTestServer(t, serve.Config{
		Workers: 1, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
			if first {
				first = false
				cancel() // spurious: the job deadline has not fired
			}
			return next(ctx)
		},
	})
	v, _ := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":3}`)
	got := waitTerminal(t, ts, v.ID, 10*time.Second)
	if got.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", got.State, got.Error)
	}
	if got.Attempts < 2 {
		t.Errorf("attempts = %d, want ≥ 2", got.Attempts)
	}
}

// TestGridResultCache pins the content-addressed result cache: an
// identical grid job (scheduling knobs aside) is answered in its 202,
// done and byte-identical, with no executor call; other job kinds are
// never cached; and a server booted from the journal refills the cache
// from the finished grid jobs it replays.
func TestGridResultCache(t *testing.T) {
	var execs atomic.Int64
	count := func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
		execs.Add(1)
		return next(ctx)
	}
	mem := storage.NewMemLog()
	jl := serve.NewJournal(mem, 1)
	srv, ts := newTestServer(t, serve.Config{Workers: 1, Journal: jl, Intercept: count})
	compact := func(raw json.RawMessage) string {
		var b bytes.Buffer
		if err := json.Compact(&b, raw); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	v, _ := submit(t, ts, `{"kind":"grid","table":"2b","reps":20,"seed":3}`)
	first := waitTerminal(t, ts, v.ID, 30*time.Second)
	if first.State != serve.StateDone || first.CacheHit {
		t.Fatalf("first grid job: state %s cache_hit %v", first.State, first.CacheHit)
	}
	hit, resp := submit(t, ts, `{"kind":"grid","table":"2b","reps":20,"seed":3,"shard_size":7}`)
	if resp.StatusCode != http.StatusAccepted || hit.State != serve.StateDone || !hit.CacheHit {
		t.Fatalf("resubmission: status %d state %s cache_hit %v, want a 202 carrying a done cache hit",
			resp.StatusCode, hit.State, hit.CacheHit)
	}
	if compact(hit.Result) != compact(first.Result) {
		t.Error("cached result differs from the computed one")
	}
	for i := 0; i < 2; i++ {
		sv, _ := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":4}`)
		if got := waitTerminal(t, ts, sv.ID, 10*time.Second); got.CacheHit {
			t.Error("single job answered from the cache")
		}
	}
	if got := execs.Load(); got != 3 {
		t.Errorf("%d executor calls, want 3 (one grid, two singles)", got)
	}
	if c := srv.Counters(); c.CacheHits != 1 || c.Accepted != 4 || c.Completed != 4 {
		t.Errorf("counters %+v, want 1 cache hit among 4 accepted and completed", c)
	}

	blob, err := mem.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	srv2 := serve.New(serve.Config{Recovery: serve.ReplayJournal(blob), Intercept: count})
	defer srv2.Close()
	job, err := srv2.Enqueue(serve.JobSpec{Kind: serve.JobGrid, Table: "2b", Reps: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := srv2.Lookup(job.ID); v.State != serve.StateDone || !v.CacheHit {
		t.Errorf("after replay: state %s cache_hit %v, want the cache refilled from the journal", v.State, v.CacheHit)
	}
	if got := execs.Load(); got != 3 {
		t.Errorf("replayed server ran the executor %d more times", got-3)
	}
}

func TestShutdownLeavesJobsResumableInJournal(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.OpenFileLog(filepath.Join(dir, "simd.journal"))
	if err != nil {
		t.Fatal(err)
	}
	jl := serve.NewJournal(store, 1)
	block := make(chan struct{})
	defer close(block)
	srv := serve.New(serve.Config{
		QueueDepth: 8, Workers: 1, Journal: jl,
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return next(ctx)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		v, resp := submit(t, ts, fmt.Sprintf(`{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":%d}`, i+1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	m, err := srv.Shutdown(drainCtx)
	if err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 3*time.Second {
		t.Errorf("shutdown took %v, drain deadline not honoured", e)
	}
	if m.Drained {
		t.Error("shutdown claims a clean drain despite blocked jobs")
	}
	if len(m.Jobs) != 3 {
		t.Fatalf("unfinished report has %d jobs, want all 3 blocked ones", len(m.Jobs))
	}

	// Submissions after shutdown shed with 503.
	_, resp := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":7}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit status %d, want 503", resp.StatusCode)
	}

	// The journal — not a manifest file — is what survives: replaying it
	// must find every aborted job unfinished (accepted record, no
	// finished record), ready to resume, with a clean-shutdown marker.
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(store.Path())
	if err != nil {
		t.Fatalf("journal not persisted: %v", err)
	}
	rec := serve.ReplayJournal(blob)
	if !rec.CleanShutdown {
		t.Error("journal missing the clean-shutdown record")
	}
	if rec.Corrupt != 0 {
		t.Errorf("replay found %d corrupt records in a healthy journal", rec.Corrupt)
	}
	if got := rec.UnfinishedJobs(); got != 3 {
		t.Fatalf("journal has %d unfinished jobs, want 3", got)
	}
	seen := map[string]bool{}
	for i := range rec.Jobs {
		j := &rec.Jobs[i]
		if !j.Unfinished() {
			t.Errorf("job %s replayed terminal (%s), want resumable", j.ID, j.State)
		}
		seen[j.ID] = true
		if j.Spec.Kind != serve.JobSingle {
			t.Errorf("journal entry %s lost its spec", j.ID)
		}
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("accepted job %s missing from journal — silently dropped", id)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestServer(t, serve.Config{
		QueueDepth: 4, Workers: 1,
		Intercept: func(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return next(ctx)
		},
	})
	a, _ := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":1}`)
	b, _ := submit(t, ts, `{"kind":"single","scheme":"A_D_S","u":0.78,"lambda":0.0014,"seed":2}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	_ = a
	v := waitTerminal(t, ts, b.ID, 10*time.Second)
	if v.State != serve.StateCanceled {
		t.Errorf("cancelled queued job ended %s", v.State)
	}
}

func TestMissionJobRuns(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	v, resp := submit(t, ts, `{"kind":"mission","scheme":"A_D_S","u":0.78,"lambda":0.0014,"frames":200,"battery":3e8,"seed":11}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	got := waitTerminal(t, ts, v.ID, 30*time.Second)
	if got.State != serve.StateDone {
		t.Fatalf("mission job ended %s: %s", got.State, got.Error)
	}
	var res serve.MissionResult
	if err := json.Unmarshal(got.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 || res.Reason == "" {
		t.Errorf("empty mission result: %+v", res)
	}
}

func TestBadSpecsRejectedAtAdmission(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{Workers: 1})
	for _, bad := range []string{
		`{"kind":"warp"}`,
		`{"kind":"grid"}`,
		`{"kind":"grid","table":"9z"}`,
		`{"kind":"single","scheme":"nope"}`,
		`{"kind":"single","scheme":"A_D_S","u":-1}`,
		`{"kind":"mission","scheme":"A_D_S","frames":-5}`,
		`{"kind":"grid","table":"1a","unknown_field":1}`,
		`not json`,
	} {
		_, resp := submit(t, ts, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// Malformed specs are refused, not shed: they never contended for
	// the queue, so the shed ledger stays clean.
	if c := srv.Counters(); c.Shed != 0 || c.Accepted != 0 {
		t.Errorf("counters after rejects: accepted=%d shed=%d, want 0/0", c.Accepted, c.Shed)
	}
}
