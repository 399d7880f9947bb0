// The coordinator: worker membership (registration, heartbeats,
// liveness, dispatch slots) and the wiring that mounts the remote
// grid executor (dispatch.go) under a serve.Server, which owns the job
// table, admission, the journal and the result cache.

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

// Config configures a Coordinator's membership and dispatch. The job
// front end is configured separately, through the serve.Config handed
// to NewWithServer. Zero values take the defaults noted on each field.
type Config struct {
	// UnitReps is the repetitions per dispatched work unit when the job
	// spec does not set ShardSize. Purely a scheduling knob — results
	// are bit-identical for every value. Default 2000.
	UnitReps int
	// LeaseTimeout is a dispatched unit's lease. A dispatch of n units
	// gets an HTTP deadline of n × LeaseTimeout: a worker that dies or
	// hangs holds them for at most that long before the dispatch errors
	// and its units become re-dispatchable. Default 15s.
	LeaseTimeout time.Duration
	// HedgeAfter is the per-unit hedge threshold: a dispatch of n units
	// outstanding on exactly one worker for longer than n × HedgeAfter
	// has its still-unbanked units sent to a second worker as one
	// dispatch (first valid answer per unit wins). Negative disables
	// hedging. Default 2s.
	HedgeAfter time.Duration
	// HeartbeatInterval is the worker probe period. Default 500ms.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the consecutive probe failures after which a
	// worker is marked dead. Default 3.
	HeartbeatMisses int
	// MaxInflightPerWorker optionally caps the dispatches outstanding on
	// one worker (each carries one or more units) below the bound the
	// worker advertises in its hello. Zero dispatches up to the worker's
	// own bound.
	MaxInflightPerWorker int
	// RetryBase/RetryMax shape the unit re-dispatch backoff (the serve
	// law: exponential, capped, deterministic jitter). Defaults 50ms/2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Transport overrides the dispatch/heartbeat transport — the chaos
	// hook. Default http.DefaultTransport.
	Transport http.RoundTripper
	// Version overrides the build version required of workers (tests
	// only). Default cli.Version().
	Version string
	// Key, when non-empty, requires every unit response to carry a valid
	// HMAC-SHA256 tag under this shared key before it is banked; failures
	// are counted (cluster_units_rejected_auth_total) and the unit is
	// re-dispatched. Empty disables authentication (the historical wire
	// behaviour).
	Key []byte
	// Logf receives operational logging. Nil means silent.
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.UnitReps <= 0 {
		cfg.UnitReps = 2000
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 15 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 2 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if cfg.Version == "" {
		cfg.Version = cli.Version()
	}
	return cfg
}

// workerState is the coordinator's record of one registered worker. All
// fields are guarded by the coordinator's mutex.
type workerState struct {
	id   string
	addr string

	live bool
	// suspended takes a live worker out of dispatch after a dispatch to
	// it could not connect (no HTTP response): until its next successful
	// heartbeat or round trip, a worker that is already gone but not yet
	// marked dead attracts no fresh runs. It is not a death — liveness
	// and cluster_worker_deaths_total stay the heartbeats' verdict.
	suspended bool
	misses    int
	inflight  int
	// slots bounds inflight: the Slots of the worker's latest hello,
	// capped by MaxInflightPerWorker.
	slots int

	unitsDone, failures int64
}

// WorkerView is the JSON projection of a registered worker.
type WorkerView struct {
	ID        string `json:"id"`
	Addr      string `json:"addr"`
	Live      bool   `json:"live"`
	Slots     int    `json:"slots"`
	Inflight  int    `json:"inflight"`
	UnitsDone int64  `json:"units_done"`
	Failures  int64  `json:"failures"`
}

// Coordinator is a serve.Server whose grid jobs are dispatched to
// registered workers. Create with New or NewWithServer, mount Handler,
// stop with Server().Shutdown (graceful) and then Close.
type Coordinator struct {
	cfg Config
	srv *serve.Server

	mu         sync.Mutex
	workers    map[string]*workerState // by normalized addr
	nextWorker int

	client *http.Client
	met    *clusterMetrics
	mux    *http.ServeMux
	// ready closes once the instruments exist: the server's workers may
	// start resumed jobs before New returns.
	ready chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New builds a coordinator whose job front end runs with the serve
// defaults (no journal).
func New(cfg Config) *Coordinator { return NewWithServer(cfg, serve.Config{}) }

// NewWithServer builds a coordinator: a serve.Server configured by scfg
// with this coordinator's dispatcher as its grid executor, sharing one
// telemetry registry, plus the worker registry and heartbeat loop.
// Journal replay (scfg.Recovery) is the server's: resumed grid jobs
// reach the dispatcher with their banked shards through the grid hooks.
func NewWithServer(cfg Config, scfg serve.Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		client:  &http.Client{Transport: cfg.Transport},
		mux:     http.NewServeMux(),
		ready:   make(chan struct{}),
	}
	c.baseCtx, c.baseCancel = context.WithCancel(context.Background())
	if scfg.Logf == nil {
		scfg.Logf = cfg.Logf
	}
	scfg.Grid = c.executeGrid
	c.srv = serve.New(scfg)
	c.initTelemetry(c.srv.Metrics())
	c.routes()
	close(c.ready)
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c
}

// Server returns the job front end.
func (c *Coordinator) Server() *serve.Server { return c.srv }

// Handler returns the coordinator's HTTP surface: the /cluster/v1/*
// membership routes, a /statusz that adds a cluster section to the
// server's, and everything else of the server's API.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the coordinator as a crash would: the server is closed
// (running jobs abandon their dispatch loops without finished records,
// and no clean-shutdown record is written — exactly what makes them
// resumable from the journal on the next boot), then heartbeats end.
// For a graceful stop, Server().Shutdown first.
func (c *Coordinator) Close() {
	c.srv.Close()
	c.baseCancel()
	c.wg.Wait()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Workers lists the registered workers, sorted by id.
func (c *Coordinator) Workers() []WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerView{
			ID: w.id, Addr: w.addr, Live: w.live, Slots: w.slots,
			Inflight: w.inflight, UnitsDone: w.unitsDone, Failures: w.failures,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WorkersLive counts workers currently considered alive.
func (c *Coordinator) WorkersLive() int {
	n, _ := c.live()
	return n
}

// live counts the live workers and the dispatch slots the unsuspended
// ones offer.
func (c *Coordinator) live() (workers, slots int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.live {
			workers++
			if !w.suspended {
				slots += w.slots
			}
		}
	}
	return workers, slots
}

// --- Worker pool ---

// acquireWorker reserves one inflight slot on the best eligible worker:
// alive, not suspended, below its slots, and not the excluded address
// (hedges must land on a different worker). Least inflight wins, then fewest
// recorded failures — so a worker that keeps returning fast-but-invalid
// payloads cannot monopolise re-dispatches of the unit it keeps
// corrupting — and id breaks the final tie for determinism.
func (c *Coordinator) acquireWorker(exclude string) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *workerState
	for _, w := range c.workers {
		if !w.live || w.suspended || w.addr == exclude || w.inflight >= w.slots {
			continue
		}
		if best == nil || w.inflight < best.inflight ||
			(w.inflight == best.inflight && (w.failures < best.failures ||
				(w.failures == best.failures && w.id < best.id))) {
			best = w
		}
	}
	if best != nil {
		best.inflight++
	}
	return best
}

// releaseWorker returns the inflight slot of a dispatch of n units that
// ended with err. A successful round trip is also liveness evidence
// (faster than waiting for the next heartbeat); a dispatch that could
// not connect suspends the worker.
func (c *Coordinator) releaseWorker(w *workerState, n int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.inflight--
	if err == nil {
		w.misses = 0
		w.live = true
		w.suspended = false
		w.unitsDone += int64(n)
		return
	}
	w.failures++
	if dialFailed(err) && !w.suspended {
		w.suspended = true
		c.logf("cluster: worker %s (%s) out of dispatch until its next heartbeat: %v", w.id, w.addr, err)
	}
}

// dialFailed reports whether a dispatch failed to connect at all, as
// opposed to an answered failure (a 503, a bad reply) or the
// dispatch's own deadline or cancellation.
func dialFailed(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial" &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// --- Heartbeats ---

func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
			c.beat()
		}
	}
}

// beat probes every registered worker once, in parallel, and applies
// the results: a success refreshes the worker's slots and resets its
// miss count (resurrecting a dead worker), a failure past the miss
// budget marks it dead.
func (c *Coordinator) beat() {
	c.mu.Lock()
	targets := make([]*workerState, 0, len(c.workers))
	for _, w := range c.workers {
		targets = append(targets, w)
	}
	c.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	slots := make([]int, len(targets))
	var wg sync.WaitGroup
	wg.Add(len(targets))
	for i, w := range targets {
		go func(i int, addr string) {
			defer wg.Done()
			slots[i] = c.probe(addr)
		}(i, w.addr)
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, w := range targets {
		if slots[i] > 0 {
			if !w.live {
				c.logf("cluster: worker %s (%s) is back", w.id, w.addr)
			}
			w.live = true
			w.suspended = false
			w.misses = 0
			w.slots = slots[i]
			continue
		}
		w.misses++
		c.met.heartbeatMisses.Inc()
		if w.live && w.misses >= c.cfg.HeartbeatMisses {
			w.live = false
			c.met.workerDeaths.Inc()
			c.logf("cluster: worker %s (%s) marked dead after %d missed heartbeats", w.id, w.addr, w.misses)
		}
	}
}

// probe performs one health check and returns the worker's dispatch
// slots: its hello's Slots, capped by MaxInflightPerWorker. A result
// below one is a failed probe — no answer, no slots, or a hello from
// another protocol or build (a worker that restarted into a different
// build is as good as dead to this coordinator).
func (c *Coordinator) probe(addr string) int {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.HeartbeatInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/cluster/v1/healthz", nil)
	if err != nil {
		return 0
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0
	}
	var hello Hello
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&hello); err != nil {
		return 0
	}
	if hello.Proto != ProtocolVersion || hello.Version != c.cfg.Version {
		return 0
	}
	if m := c.cfg.MaxInflightPerWorker; m > 0 {
		return min(hello.Slots, m)
	}
	return hello.Slots
}

// --- HTTP surface ---

func (c *Coordinator) routes() {
	c.mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	c.mux.HandleFunc("GET /cluster/v1/workers", c.handleWorkers)
	c.mux.HandleFunc("GET /statusz", c.handleStatusz)
	c.mux.Handle("/", c.srv.Handler())
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.Workers())
}

// handleRegister is the registration handshake. Protocol or build
// version skew is rejected with 400 and logged: a worker running
// different simulation code could return payloads that merge cleanly
// yet differ in bits, which is the one corruption the structural
// validators cannot catch — so it is refused at the door. The
// advertised address is then probed once: unless it answers a matching
// hello with at least one slot it is refused too, uncounted, since an
// address that is not listening yet is a transient that RegisterLoop
// retries, not skew.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad register request: " + err.Error()})
		return
	}
	if strings.TrimSpace(req.Addr) == "" {
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: "register: empty worker addr"})
		return
	}
	if req.Proto != ProtocolVersion || req.Version != c.cfg.Version {
		c.met.registerRejected.Inc()
		c.logf("cluster: rejected worker %s: proto %d (want %d), version %q (want %q)",
			req.Addr, req.Proto, ProtocolVersion, req.Version, c.cfg.Version)
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(
			"version skew: got proto %d version %q, want proto %d version %q",
			req.Proto, req.Version, ProtocolVersion, c.cfg.Version)})
		return
	}
	addr := normalizeAddr(req.Addr)
	slots := c.probe(addr)
	if slots < 1 {
		c.logf("cluster: rejected worker %s: no matching hello with slots", addr)
		serve.WriteJSON(w, http.StatusBadRequest, errorBody{Error: "register: " + addr + " answered no matching hello with slots"})
		return
	}
	c.mu.Lock()
	w0, ok := c.workers[addr]
	if !ok {
		c.nextWorker++
		w0 = &workerState{id: fmt.Sprintf("w-%03d", c.nextWorker), addr: addr}
		c.workers[addr] = w0
		c.met.workersRegistered.Inc()
		c.logf("cluster: worker %s registered at %s", w0.id, addr)
	}
	w0.live = true
	w0.misses = 0
	w0.slots = slots
	c.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, RegisterResponse{ID: w0.id, Proto: ProtocolVersion, Version: c.cfg.Version})
}
