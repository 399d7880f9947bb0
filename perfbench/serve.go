package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/storage"
)

// serveStack is simd's job service in-process: a serve.Server with its
// write-ahead journal, behind a loopback HTTP server. On the untraced
// run the journal writes to a discarding store, not a file: fsync
// latency on a shared disk moved this workload's throughput by 2x from
// run to run, burying every other layer. Framing, the writer goroutine,
// barrier acks and group commit all still run; only the disk wait is
// left out. The traced run journals to a storage.FileLog, as
// `simd -journal` does, so the storage metrics time the real store.
type serveStack struct {
	env    *runEnv
	tr     *tracer
	dir    string // the file journal's directory, removed at close
	jl     *serve.Journal
	srv    *serve.Server
	ts     *httptest.Server
	client *httpClient

	// wantReps is the grid reps every finished grid job should have
	// added to the server's grid_reps_total.
	wantReps atomic.Int64
	// roots maps a job seed to its op id and root span, so the
	// interceptor's exec span joins the op's trace.
	roots sync.Map
}

type opRoot struct {
	op   string
	root int64
	// execStart is when the job's attempt started, in Unix ns.
	execStart *atomic.Int64
}

func buildServe(env *runEnv, tr *tracer) (stack, error) {
	st := &serveStack{env: env, tr: tr}
	var log storage.LogStore = &discardLog{}
	if env.fileJournal {
		tmp := filepath.Join(".bench_build", "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmp, "journal-")
		if err != nil {
			return nil, err
		}
		st.dir = dir
		if log, err = storage.OpenFileLog(filepath.Join(dir, "simd.journal")); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	data, err := log.ReadAll()
	if err != nil {
		log.Close()
		os.RemoveAll(st.dir)
		return nil, err
	}
	if tr != nil {
		log = &tracedLog{LogStore: log, tr: tr}
	}
	st.jl = serve.NewJournal(log, serve.DefaultSyncEvery)
	cfg := serve.Config{Workers: env.nproc, Journal: st.jl, Recovery: serve.ReplayJournal(data)}
	if tr != nil {
		cfg.Intercept = st.intercept
	}
	st.srv = serve.New(cfg)
	var h http.Handler = st.srv.Handler()
	if tr != nil {
		h = handlerSpans(h, tr)
	}
	st.ts = httptest.NewServer(h)
	st.client = newHTTPClient(st.ts.URL, tr, 4*env.nproc)
	env.phase++
	// Warm-up: one job of each kind, run to completion. Their sizes are
	// fixed, so that set-up time does not depend on the seed.
	for _, kind := range []serve.JobKind{serve.JobGrid, serve.JobSingle, serve.JobMission} {
		p := opKey{phase: env.phase, client: 0, k: len(kind)}
		spec := serveSpec(p.gen(env.seed), kind)
		switch kind {
		case serve.JobGrid:
			spec.Table, spec.Reps = experiment.Tables()[0].ID, 200
		case serve.JobMission:
			spec.Frames = 400
		}
		if o := st.runSpec(p, spec); o.err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up %s job: %w", kind, o.err)
		}
	}
	return st, nil
}

// serveSpec generates one job of the serve-jobs mix. kind "" draws it.
// No record of the traffic simd serves exists, so the mix is an
// assumption: the three job kinds in equal shares, grid jobs at 100–300
// reps, missions of 200–600 frames. Sizes are drawn from the whole range
// rather than a few steps, so that job latencies form no steps for a
// quantile to jump across. Replace the mix with shares derived from a
// recorded source once one exists.
func serveSpec(g *gen, kind serve.JobKind) serve.JobSpec {
	seed := g.next()
	if kind == "" {
		kinds := []serve.JobKind{serve.JobGrid, serve.JobSingle, serve.JobMission}
		kind = kinds[g.intn(len(kinds))]
	}
	tables := experiment.Tables()
	lambdas := []float64{1e-4, 2e-4, 0.0014, 0.0016}
	settings := []string{"scp", "ccp"}
	switch kind {
	case serve.JobGrid:
		return serve.JobSpec{Kind: kind, Seed: seed, Table: tables[g.intn(len(tables))].ID, Reps: 100 + g.intn(201)}
	default:
		spec := serve.JobSpec{
			Kind: kind, Seed: seed,
			Scheme:  schemeNames[g.intn(len(schemeNames))],
			Setting: settings[g.intn(2)],
			U:       0.70 + 0.01*float64(g.intn(26)),
			Lambda:  lambdas[g.intn(len(lambdas))],
			K:       []int{1, 5}[g.intn(2)],
		}
		if kind == serve.JobMission {
			spec.Frames = 200 + g.intn(401)
			spec.Battery = 3e8
		}
		return spec
	}
}

func (st *serveStack) op(p opKey) *opRecord {
	return st.runSpec(p, serveSpec(p.gen(st.env.seed), ""))
}

func (st *serveStack) runSpec(p opKey, spec serve.JobSpec) *opRecord {
	o := &opRecord{key: p, kind: string(spec.Kind), input: spec}
	var root int64
	if st.tr != nil {
		root = st.tr.newID()
		r := opRoot{op: p.id(), root: root, execStart: new(atomic.Int64)}
		st.roots.Store(spec.Seed, r)
		defer st.roots.Delete(spec.Seed)
		defer func() {
			if ns := r.execStart.Load(); ns > 0 {
				o.queueMS = max(0, float64(ns-o.start.UnixNano())/1e6-o.submitMS)
			}
		}()
	}
	o.start = time.Now()
	v, err := st.client.runJob(o, spec, root)
	o.end = time.Now()
	if st.tr != nil {
		st.tr.add(span{ID: root, Op: p.id(), Layer: "bench", Name: "bench.op"}, o.start, o.end)
	}
	o.execMS = float64(v.ElapsedMS)
	if err != nil {
		o.err = err
		return o
	}
	if o.got, err = compactJSON(v.Result); err != nil {
		o.err = err
		return o
	}
	switch spec.Kind {
	case serve.JobGrid:
		var g serve.GridResult
		o.reps, g, o.err = checkGrid(spec, v.Result)
		if o.err == nil {
			st.wantReps.Add(o.reps)
			// Grid jobs leave ShardSize 0: the runner's default.
			o.cells = gridJobCells(spec, g, experiment.DefaultShardSize)
		}
	case serve.JobSingle:
		o.reps = 1
	case serve.JobMission:
		var mr serve.MissionResult
		if err := json.Unmarshal(v.Result, &mr); err != nil {
			o.err = err
		} else {
			o.reps = int64(mr.Frames)
		}
	}
	return o
}

// intercept wraps every job attempt to time it as the serve layer's
// exec span; mission attempts also feed mission.frames_per_sec.
func (st *serveStack) intercept(ctx context.Context, cancel context.CancelFunc, spec serve.JobSpec, next serve.Exec) (any, error) {
	t0 := time.Now()
	res, err := next(ctx)
	t1 := time.Now()
	if v, ok := st.roots.Load(spec.Seed); ok {
		r := v.(opRoot)
		st.tr.add(span{ID: st.tr.newID(), Parent: r.root, Op: r.op, Layer: "serve", Name: "serve.exec." + string(spec.Kind)}, t0, t1)
		r.execStart.Store(t0.UnixNano())
	}
	if mr, ok := res.(serve.MissionResult); ok && err == nil {
		st.tr.count("mission.frames", float64(mr.Frames))
		st.tr.count("mission.exec_s", t1.Sub(t0).Seconds())
	}
	return res, err
}

// ledger checks the server's own rep ledger: grid_reps_total must equal
// the reps of every grid job it finished for this stack.
func (st *serveStack) ledger([]*opRecord) error {
	got := st.srv.Metrics().Counter(experiment.MetricReps, "").Value()
	if want := st.wantReps.Load(); got != want {
		return fmt.Errorf("serve rep ledger: grid_reps_total %d, finished grid jobs hold %d", got, want)
	}
	return nil
}

func (st *serveStack) layerMetrics(ph *phase) map[string]float64 {
	tr := st.tr
	ops := float64(max(ph.attempted(), 1))
	var submit, queue, exec []float64
	for _, o := range ph.ops {
		submit = append(submit, o.submitMS)
		if o.err == nil {
			queue = append(queue, o.queueMS)
			exec = append(exec, o.execMS)
		}
	}
	reg := st.srv.Metrics()
	hits := float64(reg.Counter(experiment.MetricPlannerHits, "").Value())
	misses := float64(reg.Counter(experiment.MetricPlannerMisses, "").Value())
	cnt := st.srv.Counters()
	m := map[string]float64{
		"serve.submit_ms_p50":     quantile(submit, 0.5),
		"serve.queue_wait_ms_p50": quantile(queue, 0.5),
		"serve.exec_ms_p50":       quantile(exec, 0.5),
		"serve.shed":              float64(cnt.Shed),
		"serve.retries":           float64(cnt.Retries),
		"storage.appends":         tr.counter("storage.appends") / ops,
		"storage.append_bytes":    tr.counter("storage.append_bytes") / ops,
		"storage.syncs":           tr.counter("storage.syncs") / ops,
		"storage.sync_ms_p50":     quantile(tr.observations("storage.sync_ms"), 0.5),
		"core.plan_misses":        misses / ops,
		"experiment.shards":       float64(reg.Counter(experiment.MetricShards, "").Value()) / ops,
	}
	if hits+misses > 0 {
		m["core.plan_hit_ratio"] = hits / (hits + misses)
	}
	if s := tr.counter("mission.exec_s"); s > 0 {
		m["mission.frames_per_sec"] = tr.counter("mission.frames") / s
	}
	return m
}

func (st *serveStack) close() error {
	st.ts.Close()
	st.client.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := st.srv.Shutdown(ctx)
	if cerr := st.jl.Close(); err == nil {
		err = cerr
	}
	if st.dir != "" {
		if rerr := os.RemoveAll(st.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// discardLog is a LogStore that counts what it is given and keeps
// nothing, so a long run's journal costs no memory.
type discardLog struct{ size atomic.Int64 }

func (l *discardLog) ReadAll() ([]byte, error) { return nil, nil }

func (l *discardLog) Append(p []byte) (int, error) {
	l.size.Add(int64(len(p)))
	return len(p), nil
}

func (l *discardLog) Sync() error { return nil }

func (l *discardLog) Size() int64 { return l.size.Load() }

func (l *discardLog) Close() error { return nil }

// tracedLog is the journal's LogStore with its appends and syncs
// counted and timed. It embeds the wrapped store, so the journal sees
// the same interface.
type tracedLog struct {
	storage.LogStore
	tr *tracer
}

func (l *tracedLog) Append(p []byte) (int, error) {
	t0 := time.Now()
	n, err := l.LogStore.Append(p)
	l.tr.add(span{ID: l.tr.newID(), Layer: "storage", Name: "storage.append"}, t0, time.Now())
	l.tr.count("storage.appends", 1)
	l.tr.count("storage.append_bytes", float64(n))
	return n, err
}

func (l *tracedLog) Sync() error {
	t0 := time.Now()
	err := l.LogStore.Sync()
	t1 := time.Now()
	l.tr.add(span{ID: l.tr.newID(), Layer: "storage", Name: "storage.sync"}, t0, t1)
	l.tr.count("storage.syncs", 1)
	l.tr.observe("storage.sync_ms", float64(t1.Sub(t0))/1e6)
	return err
}

// handlerSpans records a serve-layer span per request that carries the
// benchmark's propagation headers, as a child of the client span that
// sent it.
func handlerSpans(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := r.Header.Get(hdrOp)
		if op == "" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.add(span{ID: tr.newID(), Parent: parent, Op: op, Layer: "serve", Name: "serve.handler"}, t0, time.Now())
	})
}
