package cluster_test

// In-process cluster suite: real coordinator and workers over
// httptest servers, pinning the tentpole invariants — N-node answers
// byte-identical to the 1-node and local answers, exact rep
// accounting through redispatch/hedging/byzantine noise, the
// content-addressed result cache, dispatch within each worker's own
// slots and the handling of a worker's 503, the registration handshake, journal-backed coordinator resume,
// /metrics-vs-/statusz consistency, and the job-service behaviour the
// coordinator inherits from serve (cancellation, bounded admission).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/store"
)

// testSpec is the canonical small workload: table 2b is the smallest
// grid (16 cells), and 40 reps at unit size 16 gives 3 units per cell
// including one short tail unit.
func testSpec() serve.JobSpec {
	return serve.JobSpec{Kind: serve.JobGrid, Table: "2b", Reps: 40, Seed: 424242, ShardSize: 16}
}

// localGridJSON computes the single-process reference answer for a
// grid spec, rendered through the same serve encoder the coordinator
// uses — the byte-identity baseline.
func localGridJSON(t *testing.T, spec serve.JobSpec) []byte {
	t.Helper()
	tspec, err := experiment.TableByID(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	tspec.Store = spec.Store
	r := experiment.Runner{Reps: spec.Reps, Seed: spec.Seed, Workers: 4, ShardSize: 13}
	tbl, err := r.RunTable(tspec)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(serve.GridResultFromTable(tbl))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// startWorker serves a cluster worker, optionally wrapping its execute
// endpoint with a fault injector (health probes stay untouched so the
// worker remains heartbeat-live).
func startWorker(t *testing.T, cfg cluster.WorkerConfig, wrapExecute func(http.Handler) http.Handler) (*cluster.Worker, *httptest.Server) {
	t.Helper()
	w := cluster.NewWorker(cfg)
	h := w.Handler()
	if wrapExecute != nil {
		inner, wrapped := h, wrapExecute(h)
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/v1/execute" {
				wrapped.ServeHTTP(rw, r)
				return
			}
			inner.ServeHTTP(rw, r)
		})
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return w, ts
}

// startCoordinator serves a coordinator with a default job front end
// and registers the given worker URLs through the real handshake.
func startCoordinator(t *testing.T, cfg cluster.Config, workerURLs ...string) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	return startCoordinatorWith(t, cfg, serve.Config{}, workerURLs...)
}

// startCoordinatorWith is startCoordinator with a job front-end config.
func startCoordinatorWith(t *testing.T, cfg cluster.Config, scfg serve.Config, workerURLs ...string) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c := cluster.NewWithServer(cfg, scfg)
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	for _, u := range workerURLs {
		if err := cluster.Register(context.Background(), nil, ts.URL, u); err != nil {
			t.Fatalf("register %s: %v", u, err)
		}
	}
	if got := len(c.Workers()); got != len(workerURLs) {
		t.Fatalf("registered %d workers, want %d", got, len(workerURLs))
	}
	return c, ts
}

// The server's job-ledger families the coordinator now reports through.
const (
	metricJobsAccepted    = "simd_jobs_accepted_total"
	metricJobsCompleted   = "simd_jobs_completed_total"
	metricJobsFailed      = "simd_jobs_failed_total"
	metricJobsResumed     = "simd_jobs_resumed_total"
	metricShardsRecovered = "simd_shards_recovered_total"
	metricCacheHits       = "simd_result_cache_hits_total"
)

func counter(c *cluster.Coordinator, name string) int64 {
	return c.Server().Metrics().Counter(name, "").Value()
}

// enqueue admits a job through the coordinator's server.
func enqueue(t *testing.T, c *cluster.Coordinator, spec serve.JobSpec) string {
	t.Helper()
	job, err := c.Server().Enqueue(spec)
	if err != nil {
		t.Fatal(err)
	}
	return job.ID
}

// resultJSON is a view's result in its compact wire encoding — the
// bytes the local reference is compared against.
func resultJSON(t *testing.T, v serve.View) []byte {
	t.Helper()
	blob, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// waitDone polls a job to terminal state.
func waitDone(t *testing.T, c *cluster.Coordinator, id string, timeout time.Duration) serve.View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, ok := c.Server().Lookup(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.State.Terminal() {
			if v.State != serve.StateDone {
				t.Fatalf("job %s ended %s: %s", id, v.State, v.Error)
			}
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %v (%d/%d units)", id, timeout, v.UnitsDone, v.UnitsTotal)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertLedgerExact pins the rep accounting: merged + recovered ==
// cells × reps with not one repetition dropped or double-counted.
func assertLedgerExact(t *testing.T, c *cluster.Coordinator, spec serve.JobSpec) {
	t.Helper()
	tspec, err := experiment.TableByID(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(tspec.Us) * len(tspec.Lambdas) * len(tspec.Schemes())
	merged := counter(c, experiment.MetricReps)
	recovered := counter(c, experiment.MetricRepsRecovered)
	if want := int64(cells * spec.Reps); merged+recovered != want {
		t.Errorf("rep ledger leak: merged %d + recovered %d != cells×reps %d", merged, recovered, want)
	}
}

// TestClusterDeterminismNodeCount is the tentpole acceptance property:
// the same JobSpec folded through 1 worker and through 3 workers
// yields result JSON byte-identical to each other and to the local
// single-process engine.
func TestClusterDeterminismNodeCount(t *testing.T) {
	spec := testSpec()
	want := localGridJSON(t, spec)

	run := func(nWorkers int) []byte {
		var urls []string
		for i := 0; i < nWorkers; i++ {
			_, ts := startWorker(t, cluster.WorkerConfig{}, nil)
			urls = append(urls, ts.URL)
		}
		c, _ := startCoordinator(t, cluster.Config{HedgeAfter: -1}, urls...)
		v := waitDone(t, c, enqueue(t, c, spec), 30*time.Second)
		assertLedgerExact(t, c, spec)
		if got := counter(c, experiment.MetricRepsRecovered); got != 0 {
			t.Errorf("%d-worker run recovered %d reps from nowhere", nWorkers, got)
		}
		return resultJSON(t, v)
	}

	one := run(1)
	three := run(3)
	if !bytes.Equal(one, want) {
		t.Error("1-worker cluster result differs from the local engine")
	}
	if !bytes.Equal(three, one) {
		t.Error("3-worker cluster result differs from the 1-worker result")
	}
}

// TestClusterGroupedDispatchDeterminism pins that grouping units into
// dispatches cannot move a bit: jobs with 1, 2 and 5 units per cell,
// one of them with a ragged tail unit, folded through two workers with
// one dispatch slot each (so dispatches carry several units), are
// byte-identical to the single-process engine with an exact ledger.
func TestClusterGroupedDispatchDeterminism(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := startWorker(t, cluster.WorkerConfig{MaxInflight: 1}, nil)
		urls = append(urls, ts.URL)
	}
	c, _ := startCoordinator(t, cluster.Config{HedgeAfter: -1}, urls...)
	cells := 0
	wantReps := 0
	for _, shape := range []struct{ reps, unit int }{
		{16, 16}, // 1 unit per cell
		{32, 16}, // 2
		{80, 16}, // 5
		{70, 16}, // 5, the last 6 reps long
	} {
		spec := testSpec()
		spec.Reps, spec.ShardSize = shape.reps, shape.unit
		spec.Seed += uint64(shape.reps) // a distinct job, never a cache hit
		v := waitDone(t, c, enqueue(t, c, spec), 30*time.Second)
		if !bytes.Equal(resultJSON(t, v), localGridJSON(t, spec)) {
			t.Errorf("%d reps in %d-rep units: grouped cluster result differs from the local engine", shape.reps, shape.unit)
		}
		if cells == 0 {
			tspec, err := experiment.TableByID(spec.Table)
			if err != nil {
				t.Fatal(err)
			}
			cells = len(tspec.Us) * len(tspec.Lambdas) * len(tspec.Schemes())
		}
		wantReps += cells * shape.reps
	}
	if got := counter(c, experiment.MetricReps); got != int64(wantReps) {
		t.Errorf("rep ledger: merged %d, want %d", got, wantReps)
	}
	if d, u := counter(c, cluster.MetricDispatches), counter(c, cluster.MetricUnitsDispatched); d >= u {
		t.Errorf("%d dispatches carried %d units: no dispatch grouped units", d, u)
	}
}

// TestClusterGroupedDispatchFailure fails a worker's first dispatch — a
// run of many units — before it banks anything: exactly that run's
// units back off and go out again, every other unit banks on its first
// dispatch, and the ledger and the table stay exact.
func TestClusterGroupedDispatchFailure(t *testing.T) {
	spec := testSpec() // 48 units
	want := localGridJSON(t, spec)

	var calls, failedUnits atomic.Int64
	failFirst := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if calls.Add(1) > 1 {
				h.ServeHTTP(rw, r)
				return
			}
			var req cluster.UnitRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("undecodable dispatch: %v", err)
			}
			failedUnits.Store(int64(len(req.Units())))
			http.Error(rw, "injected failure", http.StatusInternalServerError)
		})
	}
	_, w := startWorker(t, cluster.WorkerConfig{MaxInflight: 1}, failFirst)
	c, _ := startCoordinator(t, cluster.Config{
		HedgeAfter: -1,
		RetryBase:  time.Millisecond,
	}, w.URL)

	v := waitDone(t, c, enqueue(t, c, spec), 30*time.Second)
	if !bytes.Equal(resultJSON(t, v), want) {
		t.Error("result after a failed grouped dispatch differs from the local engine")
	}
	assertLedgerExact(t, c, spec)
	failed := failedUnits.Load()
	if failed < 2 {
		t.Fatalf("the failed dispatch carried %d units, want a group", failed)
	}
	if got := counter(c, cluster.MetricUnitsRedispatched); got != failed {
		t.Errorf("%s = %d, want exactly the failed dispatch's %d units", cluster.MetricUnitsRedispatched, got, failed)
	}
	if got := counter(c, cluster.MetricUnitsDispatched); got != int64(48)+failed {
		t.Errorf("%s = %d, want 48 + %d", cluster.MetricUnitsDispatched, got, failed)
	}
}

// TestClusterStoreConfig pins the tiered-store threading: a
// store-configured grid job folded through 2 workers is byte-identical
// to the local engine under the same config, differs from the
// store-free answer, and the store config is part of the content
// address (JobKey) so the two can never share a cache entry.
func TestClusterStoreConfig(t *testing.T) {
	spec := testSpec()
	spec.Store = store.DefaultConfig(4)
	if serve.JobKey(spec) == serve.JobKey(testSpec()) {
		t.Fatal("store config not part of the job key — cached store-free results would serve store jobs")
	}
	alt := testSpec()
	alt.Store = store.DefaultConfig(2)
	if serve.JobKey(spec) == serve.JobKey(alt) {
		t.Fatal("different store configs share a job key")
	}

	want := localGridJSON(t, spec)
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := startWorker(t, cluster.WorkerConfig{}, nil)
		urls = append(urls, ts.URL)
	}
	c, _ := startCoordinator(t, cluster.Config{HedgeAfter: -1}, urls...)
	got := resultJSON(t, waitDone(t, c, enqueue(t, c, spec), 30*time.Second))
	assertLedgerExact(t, c, spec)
	if !bytes.Equal(got, want) {
		t.Error("store-configured cluster result differs from the local engine")
	}
	if bytes.Equal(got, localGridJSON(t, testSpec())) {
		t.Error("store-configured result identical to the store-free one — config not reaching workers")
	}
}

// TestClusterCacheHit pins the content-addressed result cache: an
// identical canonical job — even with different scheduling knobs —
// is answered in its 202, finished and byte-identical, with zero new
// dispatches.
func TestClusterCacheHit(t *testing.T) {
	spec := testSpec()
	_, wts := startWorker(t, cluster.WorkerConfig{}, nil)
	c, ts := startCoordinator(t, cluster.Config{HedgeAfter: -1}, wts.URL)

	first := resultJSON(t, waitDone(t, c, enqueue(t, c, spec), 30*time.Second))

	dispatched := counter(c, cluster.MetricUnitsDispatched)
	resub := spec
	resub.ShardSize = 7       // scheduling knobs must not miss the cache:
	resub.DeadlineMS = 90_000 // they cannot change a result bit
	blob, err := json.Marshal(resub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v2 struct {
		State    serve.JobState  `json:"state"`
		CacheHit bool            `json:"cache_hit"`
		Result   json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || v2.State != serve.StateDone || !v2.CacheHit {
		t.Fatalf("resubmission: status %d state %s cacheHit %v, want a 202 carrying a done cache hit",
			resp.StatusCode, v2.State, v2.CacheHit)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, v2.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), first) {
		t.Error("cached result differs from the computed one")
	}
	if got := counter(c, cluster.MetricUnitsDispatched); got != dispatched {
		t.Errorf("cache hit dispatched %d new units, want 0", got-dispatched)
	}
	if got := counter(c, metricCacheHits); got != 1 {
		t.Errorf("%s = %d, want 1", metricCacheHits, got)
	}

	// A spec differing in a result-determining field must miss.
	miss := spec
	miss.Seed++
	id := enqueue(t, c, miss)
	if v3, _ := c.Server().Lookup(id); v3.CacheHit {
		t.Error("different seed hit the cache — content address ignores result bits")
	}
	waitDone(t, c, id, 30*time.Second)
}

// otherArch rewrites a build version to the same revision and toolchain
// built for a different target architecture — a worker whose float
// semantics may differ (FMA fusion) while everything else matches.
func otherArch(t *testing.T, version string) string {
	t.Helper()
	i := strings.LastIndexByte(version, ' ')
	if i < 0 || !strings.HasPrefix(version[i+1:], runtime.GOARCH) {
		t.Fatalf("version %q does not end in the target architecture %s", version, runtime.GOARCH)
	}
	if runtime.GOARCH == "arm64" {
		return version[:i] + " amd64/v1"
	}
	return version[:i] + " arm64/v8.0"
}

// TestClusterRegisterHandshake pins that protocol or build version
// skew — including the same revision built for another architecture —
// is refused with 400 (and counted, and the worker never joins the
// pool), on both the coordinator and worker sides. The registration
// also probes the advertised address: no listener, a hello from
// another build and a hello with no slots are each refused with 400
// and join no pool, uncounted (the counter is declared skew only), and
// a joined worker's slots follow its hello from beat to beat.
func TestClusterRegisterHandshake(t *testing.T) {
	c, ts := startCoordinator(t, cluster.Config{HeartbeatInterval: 10 * time.Millisecond})
	version := c.Status().Version
	crossArch := otherArch(t, version)

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/cluster/v1/register", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(fmt.Sprintf(`{"addr":"http://127.0.0.1:1","proto":%d,"version":"bogus-build"}`, cluster.ProtocolVersion)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("version-skewed register: status %d, want 400", resp.StatusCode)
	}
	if resp := post(fmt.Sprintf(`{"addr":"http://127.0.0.1:1","proto":%d,"version":%q}`, cluster.ProtocolVersion+1, version)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("proto-skewed register: status %d, want 400", resp.StatusCode)
	}
	if resp := post(fmt.Sprintf(`{"addr":"http://127.0.0.1:1","proto":%d,"version":%q}`, cluster.ProtocolVersion, crossArch)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("other-arch register (%q): status %d, want 400", crossArch, resp.StatusCode)
	}
	if resp := post(`{"proto":1,"version":"x"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty-addr register: status %d, want 400", resp.StatusCode)
	}
	// A protocol-1 worker sends one unit per request and answers with a
	// single result object: it must never join a protocol-2 pool.
	if resp := post(fmt.Sprintf(`{"addr":"http://127.0.0.1:1","proto":1,"version":%q}`, version)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("protocol-1 register: status %d, want 400", resp.StatusCode)
	}

	// Requests that declare the right build, at addresses whose hello
	// does not back the claim.
	helloStub := func(hello func() cluster.Hello) string {
		stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			json.NewEncoder(rw).Encode(hello())
		}))
		t.Cleanup(stub.Close)
		return stub.URL
	}
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	for name, addr := range map[string]string{
		"nothing listening": closed.URL,
		"other-build hello": helloStub(func() cluster.Hello {
			return cluster.Hello{Proto: cluster.ProtocolVersion, Version: crossArch, Slots: 2}
		}),
		"zero-slot hello": helloStub(func() cluster.Hello {
			return cluster.Hello{Proto: cluster.ProtocolVersion, Version: version}
		}),
	} {
		if resp := post(fmt.Sprintf(`{"addr":%q,"proto":%d,"version":%q}`, addr, cluster.ProtocolVersion, version)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s register: status %d, want 400", name, resp.StatusCode)
		}
	}
	if got := counter(c, cluster.MetricRegisterRejected); got != 4 {
		t.Errorf("%s = %d, want 4 (skew rejections only)", cluster.MetricRegisterRejected, got)
	}
	if got := len(c.Workers()); got != 0 {
		t.Errorf("%d workers joined through rejected handshakes", got)
	}

	// A worker restarted with another bound is picked up by the next beat.
	var slots atomic.Int64
	slots.Store(2)
	resizing := helloStub(func() cluster.Hello {
		return cluster.Hello{Proto: cluster.ProtocolVersion, Version: version, Slots: int(slots.Load())}
	})
	if err := cluster.Register(context.Background(), nil, ts.URL, resizing); err != nil {
		t.Fatalf("register resizing stub: %v", err)
	}
	if ws := c.Workers(); len(ws) != 1 || ws[0].Slots != 2 {
		t.Fatalf("Workers() = %+v, want one worker with 2 slots", ws)
	}
	slots.Store(5)
	for deadline := time.Now().Add(10 * time.Second); c.Workers()[0].Slots != 5; {
		if time.Now().After(deadline) {
			t.Fatalf("Workers() slots still %d after the hello changed to 5", c.Workers()[0].Slots)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The worker side refuses skewed unit requests the same way.
	_, wts := startWorker(t, cluster.WorkerConfig{}, nil)
	for _, skew := range []struct {
		proto   int
		version string
	}{{cluster.ProtocolVersion, "bogus-build"}, {cluster.ProtocolVersion, crossArch}, {1, version}} {
		body := fmt.Sprintf(`{"proto":%d,"version":%q,"table":"2b","col":0,"u":0.92,"lambda":1e-4,"seed":1,"start":0,"end":8}`, skew.proto, skew.version)
		resp, err := http.Post(wts.URL+"/cluster/v1/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "version skew") {
			t.Errorf("skewed execute (proto %d, %q): status %d body %s, want 400 version skew", skew.proto, skew.version, resp.StatusCode, msg)
		}
	}
}

// TestClusterRedispatchOnWorkerDeath kills a worker mid-job (server
// closed: in-flight dispatches fail, heartbeats flatline) and asserts
// the coordinator marks it dead, re-dispatches its units and still
// produces the byte-identical table with an exact ledger.
func TestClusterRedispatchOnWorkerDeath(t *testing.T) {
	spec := testSpec()
	spec.Reps, spec.ShardSize = 80, 10 // 128 units: plenty left after the kill
	want := localGridJSON(t, spec)

	slow := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			time.Sleep(3 * time.Millisecond)
			h.ServeHTTP(rw, r)
		})
	}
	_, w1 := startWorker(t, cluster.WorkerConfig{}, slow)
	_, w2 := startWorker(t, cluster.WorkerConfig{}, slow)
	c, _ := startCoordinator(t, cluster.Config{
		HedgeAfter:        -1,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatMisses:   2,
		RetryBase:         5 * time.Millisecond,
	}, w1.URL, w2.URL)

	id := enqueue(t, c, spec)
	for {
		cur, _ := c.Server().Lookup(id)
		if cur.UnitsDone >= 10 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	w1.Close() // the kill: connection refused from here on

	v := waitDone(t, c, id, 60*time.Second)
	if !bytes.Equal(resultJSON(t, v), want) {
		t.Error("post-death result differs from the local engine")
	}
	assertLedgerExact(t, c, spec)
	if got := counter(c, cluster.MetricUnitsRedispatched); got == 0 {
		t.Error("no unit was re-dispatched — the dead worker lost nothing?")
	}
	// The first refused dispatch takes the closed worker out of
	// dispatch, so the job can finish before HeartbeatMisses probes
	// have failed: wait for the heartbeats' verdict, which must come.
	deadline := time.Now().Add(5 * time.Second)
	for counter(c, cluster.MetricWorkerDeaths) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := counter(c, cluster.MetricWorkerDeaths); got == 0 {
		t.Error("heartbeats never declared the closed worker dead")
	}
	if got := c.WorkersLive(); got != 1 {
		t.Errorf("WorkersLive = %d, want 1", got)
	}
}

// TestClusterDeadWorkerOutOfDispatch pins the dial-failure suspension:
// a worker that dies after registration, with heartbeats too slow to
// mark it dead during the job, takes at most one failed dispatch per
// slot — the first refused connection takes it out of dispatch — and
// the surviving worker finishes a byte-identical table with an exact
// ledger.
func TestClusterDeadWorkerOutOfDispatch(t *testing.T) {
	spec := testSpec()
	want := localGridJSON(t, spec)
	const slots = 2
	_, live := startWorker(t, cluster.WorkerConfig{MaxInflight: slots}, nil)
	_, dead := startWorker(t, cluster.WorkerConfig{MaxInflight: slots}, nil)
	c, _ := startCoordinator(t, cluster.Config{
		HedgeAfter:        -1,
		HeartbeatInterval: time.Hour,
		RetryBase:         time.Millisecond,
	}, live.URL, dead.URL)
	dead.Close() // connection refused from here on

	v := waitDone(t, c, enqueue(t, c, spec), 30*time.Second)
	if !bytes.Equal(resultJSON(t, v), want) {
		t.Error("result differs from the local engine")
	}
	assertLedgerExact(t, c, spec)
	for _, w := range c.Workers() {
		if w.Addr == dead.URL && w.Failures > slots {
			t.Errorf("dead worker took %d failed dispatches, want at most its %d slots", w.Failures, slots)
		}
	}
	if got := counter(c, cluster.MetricWorkerDeaths); got != 0 {
		t.Errorf("a dial failure counted %d worker deaths; deaths are the heartbeats' verdict", got)
	}
}

// TestClusterHedgedDispatch pins straggler hedging: units stuck on a
// slow worker are duplicated to the fast one, the first valid answer
// wins, late twins are dropped as duplicates, and the table is still
// byte-identical with an exact ledger.
func TestClusterHedgedDispatch(t *testing.T) {
	spec := testSpec()
	spec.Reps, spec.ShardSize = 20, 10 // 32 units
	want := localGridJSON(t, spec)

	stall := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			time.Sleep(300 * time.Millisecond)
			h.ServeHTTP(rw, r)
		})
	}
	// Four slots each, whatever the host's GOMAXPROCS: the fast worker
	// keeps a slot free for hedges while the slow one stalls.
	_, slow := startWorker(t, cluster.WorkerConfig{MaxInflight: 4}, stall)
	_, fast := startWorker(t, cluster.WorkerConfig{MaxInflight: 4}, nil)
	c, _ := startCoordinator(t, cluster.Config{
		HedgeAfter: 25 * time.Millisecond,
	}, slow.URL, fast.URL)

	v := waitDone(t, c, enqueue(t, c, spec), 60*time.Second)
	if !bytes.Equal(resultJSON(t, v), want) {
		t.Error("hedged result differs from the local engine")
	}
	assertLedgerExact(t, c, spec)
	if got := counter(c, cluster.MetricHedgesWon); got == 0 {
		t.Errorf("%s = 0: no hedge ever won against a 300ms straggler", cluster.MetricHedgesWon)
	}
	hedged := counter(c, cluster.MetricUnitsHedged)
	if won := counter(c, cluster.MetricHedgesWon); won > hedged {
		t.Errorf("hedges won %d > hedged %d", won, hedged)
	}
}

// TestClusterByzantineShardRejected runs one corrupting worker next to
// an honest one. The corrupting worker poisons the first result of
// every reply it sends: that result is rejected by structural
// validation and its unit alone re-dispatched, while its siblings in
// the same reply bank — so every rejection costs exactly one
// re-dispatch — and the final table is still byte-identical:
// byzantine workers cost time, never bits.
func TestClusterByzantineShardRejected(t *testing.T) {
	spec := testSpec()
	spec.Reps, spec.ShardSize = 20, 10 // 32 units
	want := localGridJSON(t, spec)

	var poisoned atomic.Int64
	corrupt := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				rw.WriteHeader(rec.Code)
				rw.Write(rec.Body.Bytes())
				return
			}
			var res []cluster.UnitResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || len(res) == 0 {
				t.Errorf("worker reply is not a list of unit results: %v", err)
				return
			}
			// Truncate the first unit's shard payload, so any sibling
			// follows it in the reply: a single flipped byte can land in
			// a merged-but-unrendered sum and slip through, but a short
			// encoding always fails the self-validating decoder.
			res[0].Data = res[0].Data[:len(res[0].Data)-1]
			poisoned.Add(1)
			blob, _ := json.Marshal(res)
			rw.Header().Set("Content-Type", "application/json")
			rw.Write(blob)
		})
	}
	// Four slots each, whatever the host's GOMAXPROCS, so 32 units
	// still group into runs of several per dispatch.
	_, evil := startWorker(t, cluster.WorkerConfig{MaxInflight: 4}, corrupt)
	_, good := startWorker(t, cluster.WorkerConfig{MaxInflight: 4}, nil)
	c, _ := startCoordinator(t, cluster.Config{
		HedgeAfter: -1,
		RetryBase:  2 * time.Millisecond,
	}, evil.URL, good.URL)

	v := waitDone(t, c, enqueue(t, c, spec), 60*time.Second)
	if !bytes.Equal(resultJSON(t, v), want) {
		t.Error("byzantine worker changed the table bits")
	}
	assertLedgerExact(t, c, spec)
	rejected := counter(c, cluster.MetricUnitsRejected)
	if rejected == 0 || rejected != poisoned.Load() {
		t.Errorf("%s = %d, want one per poisoned reply (%d)", cluster.MetricUnitsRejected, rejected, poisoned.Load())
	}
	if got := counter(c, cluster.MetricUnitsRedispatched); got != rejected {
		t.Errorf("%s = %d, want %d: only the poisoned unit of a reply may go out again",
			cluster.MetricUnitsRedispatched, got, rejected)
	}
	if d, u := counter(c, cluster.MetricDispatches), counter(c, cluster.MetricUnitsDispatched); d >= u {
		t.Errorf("%d dispatches carried %d units: no dispatch grouped units", d, u)
	}
}

// TestClusterDispatchWithinWorkerSlots pins the one capacity bound: a
// coordinator with no cap of its own sends each worker at most the
// slots its hello advertises, so workers bounded at 1 and 3 never see
// more concurrent dispatches than that and never shed, and the table
// and ledger stay exact.
func TestClusterDispatchWithinWorkerSlots(t *testing.T) {
	spec := testSpec()
	spec.Reps, spec.ShardSize = 80, 10 // 128 units
	want := localGridJSON(t, spec)

	bounds := []int{1, 3}
	peaks := make([]atomic.Int64, len(bounds))
	var sheds atomic.Int64
	var urls []string
	for i, n := range bounds {
		var cur atomic.Int64
		track := func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				now := cur.Add(1)
				defer cur.Add(-1)
				for p := peaks[i].Load(); now > p && !peaks[i].CompareAndSwap(p, now); p = peaks[i].Load() {
				}
				sr := &slowReply{ResponseWriter: rw}
				h.ServeHTTP(sr, r)
				if sr.code == http.StatusServiceUnavailable {
					sheds.Add(1)
				}
			})
		}
		_, ts := startWorker(t, cluster.WorkerConfig{MaxInflight: n}, track)
		urls = append(urls, ts.URL)
	}
	c, _ := startCoordinator(t, cluster.Config{HedgeAfter: -1}, urls...)
	for i, w := range c.Workers() {
		if w.Slots != bounds[i] {
			t.Errorf("worker %s: Slots = %d, want its MaxInflight %d", w.ID, w.Slots, bounds[i])
		}
	}

	v := waitDone(t, c, enqueue(t, c, spec), 30*time.Second)
	if !bytes.Equal(resultJSON(t, v), want) {
		t.Error("result differs from the local engine")
	}
	assertLedgerExact(t, c, spec)
	for i, n := range bounds {
		if got := peaks[i].Load(); got > int64(n) {
			t.Errorf("worker %d saw %d concurrent dispatches, above its %d slots", i, got, n)
		}
	}
	if got := peaks[1].Load(); got < 2 {
		t.Errorf("the 3-slot worker never saw 2 concurrent dispatches (peak %d): its spare slots went unused", got)
	}
	if got := sheds.Load(); got != 0 {
		t.Errorf("workers shed %d dispatches, want 0", got)
	}
}

// slowReply records the status a worker handler writes and delays its
// body writes, so a handler holds its inflight slot a while and
// concurrent dispatches overlap inside the worker.
type slowReply struct {
	http.ResponseWriter
	code int
}

func (s *slowReply) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *slowReply) Write(b []byte) (int, error) {
	time.Sleep(2 * time.Millisecond)
	return s.ResponseWriter.Write(b)
}

// TestClusterShardAuth pins the HMAC shard authentication: a keyed
// coordinator rejects shards from a keyless worker (counted under
// cluster_units_rejected_auth_total) and from a worker holding the
// wrong key, banks only shards a correctly-keyed worker signed, and
// the final table is still byte-identical to the local engine.
func TestClusterShardAuth(t *testing.T) {
	spec := testSpec()
	spec.Reps, spec.ShardSize = 20, 10 // 32 units
	want := localGridJSON(t, spec)
	key := []byte("cluster-secret")

	_, keyless := startWorker(t, cluster.WorkerConfig{}, nil)
	_, wrongKey := startWorker(t, cluster.WorkerConfig{Key: []byte("not-the-secret")}, nil)
	_, keyed := startWorker(t, cluster.WorkerConfig{Key: key}, nil)
	c, _ := startCoordinator(t, cluster.Config{
		HedgeAfter: -1,
		RetryBase:  2 * time.Millisecond,
		Key:        key,
	}, keyless.URL, wrongKey.URL, keyed.URL)

	v := waitDone(t, c, enqueue(t, c, spec), 60*time.Second)
	if !bytes.Equal(resultJSON(t, v), want) {
		t.Error("authenticated cluster result differs from the local engine")
	}
	assertLedgerExact(t, c, spec)
	if got := counter(c, cluster.MetricUnitsRejectedAuth); got == 0 {
		t.Errorf("%s = 0: unauthenticated shards were never rejected", cluster.MetricUnitsRejectedAuth)
	}
	// Auth rejections must not leak into the structural-rejection family:
	// the two report different attacks.
	if got := counter(c, cluster.MetricUnitsRejected); got != 0 {
		t.Errorf("%s = %d, want 0 — auth failures misfiled as byzantine", cluster.MetricUnitsRejected, got)
	}
}

// TestClusterShedRedispatch pins that a worker's 503 is handled like
// any failed dispatch: the shedder's wrapper answers its first shedK
// execute calls — all of its slots in the first wave — with 503 and a
// Retry-After hint, every unit those dispatches carried backs off and
// goes out again, each shed counts as one failure against the shedder,
// and the hint parks nothing: the shedder banks units afterwards. The
// table and ledger stay exact.
func TestClusterShedRedispatch(t *testing.T) {
	const shedK = 4
	spec := testSpec()
	spec.Reps, spec.ShardSize = 20, 10 // 32 units
	want := localGridJSON(t, spec)

	var calls, shedUnits atomic.Int64
	shedFirst := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if calls.Add(1) > shedK {
				h.ServeHTTP(rw, r)
				return
			}
			var req cluster.UnitRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("undecodable dispatch: %v", err)
			}
			shedUnits.Add(int64(len(req.Units())))
			rw.Header().Set("Retry-After", "1")
			http.Error(rw, "injected shed", http.StatusServiceUnavailable)
		})
	}
	_, shedder := startWorker(t, cluster.WorkerConfig{MaxInflight: shedK}, shedFirst)
	_, steady := startWorker(t, cluster.WorkerConfig{MaxInflight: shedK}, nil)
	c, _ := startCoordinator(t, cluster.Config{
		HedgeAfter: -1,
		RetryBase:  2 * time.Millisecond,
	}, shedder.URL, steady.URL)

	v := waitDone(t, c, enqueue(t, c, spec), 60*time.Second)
	if !bytes.Equal(resultJSON(t, v), want) {
		t.Error("result differs from the local engine after sheds")
	}
	assertLedgerExact(t, c, spec)
	shed := shedUnits.Load()
	if got := calls.Load(); got <= shedK {
		t.Fatalf("shedder saw %d execute calls, want more than its %d sheds", got, shedK)
	}
	if got := counter(c, cluster.MetricUnitsRedispatched); got != shed {
		t.Errorf("%s = %d, want exactly the shed dispatches' %d units", cluster.MetricUnitsRedispatched, got, shed)
	}
	if got := counter(c, cluster.MetricUnitsDispatched); got != 32+shed {
		t.Errorf("%s = %d, want 32 + %d", cluster.MetricUnitsDispatched, got, shed)
	}
	w := c.Workers()[0] // the shedder registered first
	if w.Failures != shedK {
		t.Errorf("shedder failures = %d, want one per shed (%d)", w.Failures, shedK)
	}
	if w.UnitsDone == 0 {
		t.Error("shedder banked nothing after its sheds: it was parked")
	}
}

// TestCoordinatorJournalResume crashes the coordinator mid-job
// (Close() abandons the dispatch loop without a finished record) and
// boots a successor from the replayed journal: the job resumes from
// its banked shards, only the gaps are dispatched, and the finished
// table is byte-identical with the resumed ledger exact.
func TestCoordinatorJournalResume(t *testing.T) {
	spec := testSpec()
	spec.Reps, spec.ShardSize = 200, 10 // 320 units: the crash lands mid-flight
	want := localGridJSON(t, spec)
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.journal")

	slow := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			time.Sleep(2 * time.Millisecond)
			h.ServeHTTP(rw, r)
		})
	}
	_, wts := startWorker(t, cluster.WorkerConfig{MaxInflight: 2}, slow)

	// Life 1: journalled coordinator, crash after some units banked.
	store1, err := storage.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	jl1 := serve.NewJournal(store1, 2)
	c1 := cluster.NewWithServer(cluster.Config{HedgeAfter: -1, Logf: t.Logf}, serve.Config{Journal: jl1})
	ts1 := httptest.NewServer(c1.Handler())
	if err := cluster.Register(context.Background(), nil, ts1.URL, wts.URL); err != nil {
		t.Fatal(err)
	}
	id := enqueue(t, c1, spec)
	for {
		cur, _ := c1.Server().Lookup(id)
		if cur.UnitsDone >= 15 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before the crash (%s)", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	ts1.Close()
	c1.Close() // abandons the job: no finished record
	if err := jl1.Close(); err != nil {
		t.Fatal(err)
	}
	banked1 := counter(c1, cluster.MetricUnitsCompleted)
	if banked1 == 0 {
		t.Fatal("no unit banked before the crash — resume is vacuous")
	}

	// Life 2: replay, resume, finish.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve.ReplayJournal(blob)
	if rec.CleanShutdown {
		t.Error("journal claims clean shutdown after a crashed coordinator")
	}
	if got := rec.UnfinishedJobs(); got != 1 {
		t.Fatalf("replay found %d unfinished jobs, want 1", got)
	}
	store2, err := storage.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	jl2 := serve.NewJournal(store2, 2)
	defer jl2.Close()
	c2 := cluster.NewWithServer(cluster.Config{HedgeAfter: -1, Logf: t.Logf},
		serve.Config{Journal: jl2, Recovery: rec})
	t.Cleanup(c2.Close)
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(ts2.Close)
	if err := cluster.Register(context.Background(), nil, ts2.URL, wts.URL); err != nil {
		t.Fatal(err)
	}

	v2 := waitDone(t, c2, id, 60*time.Second)
	if !v2.Resumed {
		t.Error("finished job not marked resumed")
	}
	if !bytes.Equal(resultJSON(t, v2), want) {
		t.Error("resumed result differs from the local engine")
	}
	assertLedgerExact(t, c2, spec)
	recovered := counter(c2, experiment.MetricRepsRecovered)
	if recovered == 0 {
		t.Error("successor recovered nothing from the journal")
	}
	if got := counter(c2, metricJobsResumed); got != 1 {
		t.Errorf("%s = %d, want 1", metricJobsResumed, got)
	}
	if got := counter(c2, metricShardsRecovered); got == 0 {
		t.Errorf("%s = 0, want > 0", metricShardsRecovered)
	}
	t.Logf("crash after %d banked units; successor recovered %d reps", banked1, recovered)
}

// TestCoordinatorCancelRunningJob drives DELETE /v1/jobs/{id} — which
// the coordinator inherits from the server — on a running remote grid
// job: it ends canceled, the journal holds its canceled finished
// record, and no unit is dispatched after the cancel lands.
func TestCoordinatorCancelRunningJob(t *testing.T) {
	spec := testSpec()
	spec.Reps, spec.ShardSize = 200, 10 // 320 units at ≥5ms: seconds of work
	slow := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			time.Sleep(5 * time.Millisecond)
			h.ServeHTTP(rw, r)
		})
	}
	_, wts := startWorker(t, cluster.WorkerConfig{}, slow)
	mem := storage.NewMemLog()
	jl := serve.NewJournal(mem, 1)
	c, ts := startCoordinatorWith(t, cluster.Config{HedgeAfter: -1, MaxInflightPerWorker: 2},
		serve.Config{Journal: jl}, wts.URL)
	// The coordinator's cap only ever lowers the worker's own bound.
	if got, want := c.Workers()[0].Slots, min(2, runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("capped worker slots = %d, want %d", got, want)
	}

	id := enqueue(t, c, spec)
	for {
		v, _ := c.Server().Lookup(id)
		if v.UnitsDone >= 5 {
			break
		}
		if v.State.Terminal() {
			t.Fatalf("job ended %s before the cancel", v.State)
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d, want 200", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	v, _ := c.Server().Lookup(id)
	for !v.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("canceled job still %s after 10s", v.State)
		}
		time.Sleep(time.Millisecond)
		v, _ = c.Server().Lookup(id)
	}
	if v.State != serve.StateCanceled {
		t.Fatalf("canceled job ended %s (%s), want canceled", v.State, v.Error)
	}
	if v.UnitsDone >= v.UnitsTotal {
		t.Fatalf("all %d units banked before the cancel landed — nothing was canceled", v.UnitsTotal)
	}
	dispatched := counter(c, cluster.MetricUnitsDispatched)
	time.Sleep(100 * time.Millisecond) // 20 unit round trips' worth
	if got := counter(c, cluster.MetricUnitsDispatched); got != dispatched {
		t.Errorf("%d units dispatched after the job was canceled", got-dispatched)
	}

	blob, err := mem.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rec := serve.ReplayJournal(blob)
	var found bool
	for _, rj := range rec.Jobs {
		if rj.ID == id {
			found = true
			if rj.State != serve.StateCanceled {
				t.Errorf("journal records %s as %s, want canceled", id, rj.State)
			}
		}
	}
	if !found {
		t.Errorf("journal has no record of %s", id)
	}
}

// TestCoordinatorQueueFullSheds fills a small admission queue on a
// coordinator and checks that the next submission sheds with 503 and a
// Retry-After hint — bounded admission the coordinator inherits from
// the server.
func TestCoordinatorQueueFullSheds(t *testing.T) {
	// No workers: an admitted grid job holds the one job executor,
	// waiting for a worker to dispatch to.
	c, ts := startCoordinatorWith(t, cluster.Config{}, serve.Config{QueueDepth: 1, Workers: 1})
	post := func(seed uint64) *http.Response {
		t.Helper()
		spec := testSpec()
		spec.Seed = seed // distinct seeds: no cache hits
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	running := post(1)
	if running.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", running.StatusCode)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if v, _ := c.Server().Lookup("job-000001"); v.State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp := post(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit (fills the queue): status %d", resp.StatusCode)
	}
	resp := post(3)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit past the queue bound: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}
	if got := c.Server().Counters().Shed; got != 1 {
		t.Errorf("shed counter %d, want 1", got)
	}
}

// --- /metrics vs /statusz consistency (satellite 4) ---

var (
	clusterMetricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	clusterSampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// parseExposition validates Prometheus text format 0.0.4 and returns
// samples keyed by full sample name (the serve suite's strict parser).
func parseExposition(body string) (map[string]float64, error) {
	samples := map[string]float64{}
	typed := map[string]string{}
	for i, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !clusterMetricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad HELP %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || !clusterMetricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad TYPE %q", i+1, line)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", i+1, kind)
			}
			typed[name] = kind
		case strings.HasPrefix(line, "#"):
			return nil, fmt.Errorf("line %d: unexpected comment %q", i+1, line)
		default:
			m := clusterSampleRe.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("line %d: unparseable sample %q", i+1, line)
			}
			name, raw := m[1], m[3]
			family := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if typed[strings.TrimSuffix(name, suf)] == "histogram" {
					family = strings.TrimSuffix(name, suf)
					break
				}
			}
			if typed[family] == "" {
				return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", i+1, name)
			}
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q: %v", i+1, raw, err)
			}
			samples[m[1]+m[2]] = v
		}
	}
	return samples, nil
}

// TestClusterStatuszMatchesMetrics: /metrics and /statusz render the
// same registry — the server's job ledger and the cluster section alike
// — so every counter must agree exactly, and the exposition must be
// strictly well-formed: the coordinator twin of the serve
// ledger-consistency test.
func TestClusterStatuszMatchesMetrics(t *testing.T) {
	spec := testSpec()
	_, wts := startWorker(t, cluster.WorkerConfig{}, nil)
	// An (empty) replayed journal, so the recovery section is present.
	c, ts := startCoordinatorWith(t, cluster.Config{HedgeAfter: -1},
		serve.Config{Recovery: serve.ReplayJournal(nil)}, wts.URL)

	waitDone(t, c, enqueue(t, c, spec), 30*time.Second)
	enqueue(t, c, spec) // a cache hit, to move that counter too

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("GET /metrics Content-Type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseExposition(string(body))
	if err != nil {
		t.Fatalf("malformed exposition: %v\n---\n%s", err, body)
	}

	sresp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st struct {
		serve.Status
		Cluster cluster.Status `json:"cluster"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Recovery == nil {
		t.Fatal("/statusz has no recovery section")
	}
	cs := st.Cluster.Counters

	for name, want := range map[string]int64{
		cluster.MetricWorkersRegistered: cs.WorkersRegistered,
		cluster.MetricRegisterRejected:  cs.RegisterRejected,
		cluster.MetricWorkerDeaths:      cs.WorkerDeaths,
		cluster.MetricHeartbeatMisses:   cs.HeartbeatMisses,
		cluster.MetricDispatches:        cs.Dispatches,
		cluster.MetricUnitsDispatched:   cs.UnitsDispatched,
		cluster.MetricUnitsCompleted:    cs.UnitsCompleted,
		cluster.MetricUnitsRedispatched: cs.UnitsRedispatched,
		cluster.MetricUnitsHedged:       cs.UnitsHedged,
		cluster.MetricHedgesWon:         cs.HedgesWon,
		cluster.MetricUnitsRejected:     cs.UnitsRejected,
		cluster.MetricUnitsRejectedAuth: cs.UnitsRejectedAuth,
		cluster.MetricUnitsDuplicate:    cs.UnitsDuplicate,
		metricCacheHits:                 st.Counters.CacheHits,
		metricJobsAccepted:              st.Counters.Accepted,
		metricJobsCompleted:             st.Counters.Completed,
		metricJobsFailed:                st.Counters.Failed,
		metricJobsResumed:               st.Recovery.JobsResumed,
		metricShardsRecovered:           st.Recovery.ShardsRecovered,
		experiment.MetricReps:           cs.RepsMerged,
		experiment.MetricRepsRecovered:  cs.RepsRecovered,
	} {
		got, ok := samples[name]
		if !ok {
			t.Errorf("/metrics missing sample %s", name)
			continue
		}
		if int64(got) != want {
			t.Errorf("%s: /metrics %v vs /statusz %d", name, got, want)
		}
	}
	if got, ok := samples[cluster.MetricWorkersLive]; !ok || int(got) != st.Cluster.WorkersLive {
		t.Errorf("%s: /metrics %v (present %v) vs /statusz %d", cluster.MetricWorkersLive, got, ok, st.Cluster.WorkersLive)
	}
	// Sanity: the workload actually moved the interesting counters.
	if cs.UnitsCompleted == 0 || st.Counters.CacheHits == 0 || st.Counters.Completed != 2 {
		t.Errorf("workload left counters unmoved: cluster %+v, jobs %+v", cs, st.Counters)
	}
	// Grouped dispatch: every dispatch carries at least one unit, and a
	// 48-unit job on one worker groups several into some dispatch.
	if cs.Dispatches == 0 || cs.Dispatches >= cs.UnitsDispatched {
		t.Errorf("%d dispatches for %d units dispatched, want fewer dispatches than units", cs.Dispatches, cs.UnitsDispatched)
	}
}
