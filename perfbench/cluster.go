package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/serve"
)

// Cluster workload shape: two loopback workers sharing the nproc
// executors; every resubmitEvery-th op of a client resubmits one of its
// last resubmitWindow specs (answered by the coordinator's result
// cache). No record of cluster traffic exists, so the 20% resubmission
// share, the window of 16 and the job size are assumptions. The cycle
// is fixed, not drawn, so that the share of cache hits and of each
// table size is the same in every run.
const (
	clusterWorkers   = 2
	resubmitEvery    = 5
	resubmitWindow   = 16
	clusterJobReps   = 400
	clusterShardReps = 200
)

// clusterStack is `simd -role=coordinator` with two `-role=worker`
// nodes, in-process over loopback HTTP, with the shared HMAC key on.
type clusterStack struct {
	env     *runEnv
	tr      *tracer
	coord   *cluster.Coordinator
	cts     *httptest.Server
	wts     []*httptest.Server
	client  *httpClient
	baseRT  *http.Transport
	history [][]clusterPast // per client: earlier specs and their results

	// wantReps is the reps every computed (non-cache-hit) job merged.
	wantReps atomic.Int64
	roots    sync.Map // job seed -> opRoot
	execMS   sync.Map // unit key -> worker exec ms
}

type clusterPast struct {
	spec serve.JobSpec
	got  []byte
}

func buildCluster(env *runEnv, tr *tracer) (stack, error) {
	key := []byte(fmt.Sprintf("perfbench-%d", env.seed))
	inflight := max(1, env.nproc/clusterWorkers)
	st := &clusterStack{env: env, tr: tr, history: make([][]clusterPast, env.nproc)}
	st.baseRT = &http.Transport{MaxIdleConnsPerHost: 4 * inflight}
	var rt http.RoundTripper = st.baseRT
	if tr != nil {
		rt = &unitTransport{inner: st.baseRT, st: st}
	}
	for i := 0; i < clusterWorkers; i++ {
		w := cluster.NewWorker(cluster.WorkerConfig{MaxInflight: inflight, Key: key})
		var h http.Handler = w.Handler()
		if tr != nil {
			h = st.workerSpans(h)
		}
		st.wts = append(st.wts, httptest.NewServer(h))
	}
	st.coord = cluster.New(cluster.Config{Key: key, MaxInflightPerWorker: inflight, Transport: rt})
	st.cts = httptest.NewServer(st.coord.Handler())
	st.client = newHTTPClient(st.cts.URL, tr, 4*env.nproc)
	for _, w := range st.wts {
		if err := cluster.Register(context.Background(), nil, st.cts.URL, w.URL); err != nil {
			st.close()
			return nil, fmt.Errorf("register worker: %w", err)
		}
	}
	env.phase++
	p := opKey{phase: env.phase}
	if o := st.runSpec(p, clusterSpec(p, env.seed), false); o.err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up job: %w", o.err)
	}
	return st, nil
}

// clusterSpec generates a fresh grid job with its own seed: the paper
// tables in turn (resubmitEvery and the table count are coprime, so the
// fresh ops still cycle through every table), at small reps, split into
// two units per cell.
func clusterSpec(p opKey, seed uint64) serve.JobSpec {
	tables := experiment.Tables()
	return serve.JobSpec{
		Kind: serve.JobGrid, Seed: p.gen(seed).next(),
		Table: tables[p.k%len(tables)].ID, Reps: clusterJobReps, ShardSize: clusterShardReps,
	}
}

func (st *clusterStack) op(p opKey) *opRecord {
	spec := clusterSpec(p, st.env.seed)
	hist := st.history[p.client]
	if len(hist) > 0 && p.k%resubmitEvery == resubmitEvery-1 {
		past := hist[p.gen(st.env.seed^0x7e5b).intn(len(hist))]
		o := st.runSpec(p, past.spec, true)
		if o.err == nil && !bytes.Equal(o.got, past.got) {
			o.err = fmt.Errorf("resubmitted job result differs from the first answer")
		}
		return o
	}
	o := st.runSpec(p, spec, false)
	if o.err == nil {
		hist = append(hist, clusterPast{spec: spec, got: o.got})
		if len(hist) > resubmitWindow {
			hist = hist[1:]
		}
		st.history[p.client] = hist
	}
	return o
}

func (st *clusterStack) runSpec(p opKey, spec serve.JobSpec, resubmit bool) *opRecord {
	o := &opRecord{key: p, kind: "grid", input: spec}
	if resubmit {
		o.kind = "grid-resubmit"
	}
	var root int64
	if st.tr != nil && !resubmit {
		root = st.tr.newID()
		st.roots.Store(spec.Seed, opRoot{op: p.id(), root: root})
		defer st.roots.Delete(spec.Seed)
	}
	o.start = time.Now()
	v, err := st.client.runJob(o, spec, root)
	o.end = time.Now()
	if st.tr != nil {
		if resubmit {
			root = st.tr.newID()
		}
		st.tr.add(span{ID: root, Op: p.id(), Layer: "bench", Name: "bench.op"}, o.start, o.end)
	}
	o.cacheHit = v.CacheHit
	if err != nil {
		o.err = err
		return o
	}
	if o.got, err = compactJSON(v.Result); err != nil {
		o.err = err
		return o
	}
	reps, g, err := checkGrid(spec, v.Result)
	if err != nil {
		o.err = err
		return o
	}
	if !v.CacheHit {
		if v.UnitsDone != v.UnitsTotal || v.UnitsTotal == 0 {
			o.err = fmt.Errorf("job %s: %d of %d units banked", v.ID, v.UnitsDone, v.UnitsTotal)
			return o
		}
		o.reps = reps
		st.wantReps.Add(reps)
		o.cells = gridJobCells(spec, g, spec.ShardSize)
	}
	return o
}

// ledger checks the coordinator's rep ledger: reps_merged must equal
// the reps of every job it computed for this stack.
func (st *clusterStack) ledger([]*opRecord) error {
	got := st.coord.Status().Counters.RepsMerged
	if want := st.wantReps.Load(); got != want {
		return fmt.Errorf("cluster rep ledger: reps_merged %d, computed jobs hold %d", got, want)
	}
	return nil
}

func (st *clusterStack) layerMetrics(ph *phase) map[string]float64 {
	tr := st.tr
	c := st.coord.Status().Counters
	hits := 0
	for _, o := range ph.ops {
		if o.cacheHit {
			hits++
		}
	}
	m := map[string]float64{
		"cluster.unit_rtt_ms_p50":    quantile(tr.observations("cluster.unit_rtt_ms"), 0.5),
		"cluster.worker_exec_ms_p50": quantile(tr.observations("cluster.worker_exec_ms"), 0.5),
		"cluster.wire_ms_p50":        quantile(tr.observations("cluster.wire_ms"), 0.5),
		"cluster.units_redispatched": float64(c.UnitsRedispatched),
		"cluster.units_hedged":       float64(c.UnitsHedged),
		"cluster.cache_hit_ratio":    float64(hits) / float64(max(ph.attempted(), 1)),
	}
	if n := tr.counter("cluster.units"); n > 0 {
		m["cluster.unit_bytes"] = tr.counter("cluster.unit_bytes") / n
	}
	return m
}

func (st *clusterStack) close() error {
	st.cts.Close()
	st.coord.Close()
	for _, w := range st.wts {
		w.Close()
	}
	st.client.close()
	st.baseRT.CloseIdleConnections()
	return nil
}

// unitKey identifies a dispatched unit across the coordinator's
// transport and the worker's handler.
func unitKey(r cluster.UnitRequest) string {
	return fmt.Sprintf("%d|%s|%d|%v|%v|%d|%d", r.Seed, r.Table, r.Col, r.U, r.Lambda, r.Start, r.End)
}

// readUnit reads and restores a unit request body.
func readUnit(body io.ReadCloser) ([]byte, cluster.UnitRequest, error) {
	var req cluster.UnitRequest
	raw, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		return nil, req, err
	}
	return raw, req, json.Unmarshal(raw, &req)
}

// unitTransport is the coordinator's dispatch transport with every
// unit round trip timed and sized; other traffic (heartbeats) passes
// through untouched.
type unitTransport struct {
	inner http.RoundTripper
	st    *clusterStack
}

func (t *unitTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/cluster/v1/execute" || req.Body == nil {
		return t.inner.RoundTrip(req)
	}
	raw, unit, err := readUnit(req.Body)
	if err != nil {
		return nil, err
	}
	tr := t.st.tr
	id := tr.newID()
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(raw))
	out.ContentLength = int64(len(raw))
	var op string
	var parent int64
	if v, ok := t.st.roots.Load(unit.Seed); ok {
		r := v.(opRoot)
		op, parent = r.op, r.root
		out.Header.Set(hdrOp, op)
		out.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	tr.add(span{ID: id, Parent: parent, Op: op, Layer: "http", Name: "cluster.unit"}, t0, t1)
	rtt := float64(t1.Sub(t0)) / 1e6
	tr.observe("cluster.unit_rtt_ms", rtt)
	tr.count("cluster.units", 1)
	tr.count("cluster.unit_bytes", float64(len(raw)+len(body)))
	if v, ok := t.st.execMS.LoadAndDelete(unitKey(unit)); ok {
		tr.observe("cluster.wire_ms", rtt-v.(float64))
	}
	return resp, err
}

// workerSpans times a worker's unit executions (decode, ExecUnit, HMAC,
// encode) as cluster-layer spans under the unit's round-trip span.
func (st *clusterStack) workerSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/v1/execute" {
			h.ServeHTTP(w, r)
			return
		}
		raw, unit, err := readUnit(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(raw))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		if err != nil {
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		st.tr.add(span{ID: st.tr.newID(), Parent: parent, Op: r.Header.Get(hdrOp), Layer: "cluster", Name: "cluster.worker.exec"}, t0, t1)
		ms := float64(t1.Sub(t0)) / 1e6
		st.tr.observe("cluster.worker_exec_ms", ms)
		st.execMS.Store(unitKey(unit), ms)
	})
}
