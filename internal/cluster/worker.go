// The worker side of the cluster: a stateless executor. A worker holds
// no job state at all — every unit request is a run of pure addresses
// into the deterministic computation, so a worker can be SIGKILLed at
// any moment and the only loss is the lease the coordinator
// re-dispatches. The crashpoint "worker.unit" sits between finishing a
// unit and writing the response, once per unit: a kill there models the
// worst case (work done, reply lost), which the coordinator must answer
// by re-executing elsewhere without double-merging.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"slices"
	"time"

	"repro/internal/cli"
	"repro/internal/crashpoint"
	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Worker-side metric families (on the worker's own /metrics).
const (
	MetricWorkerUnitsExecuted = "cluster_worker_units_executed_total"
	MetricWorkerBusy          = "cluster_worker_busy_total"
	MetricWorkerRejected      = "cluster_worker_requests_rejected_total"
)

// WorkerConfig configures a cluster worker.
type WorkerConfig struct {
	// MaxInflight bounds concurrently executing dispatches (each a run
	// of units). The worker advertises it as its hello's Slots and the
	// coordinator dispatches within it; a request past it anyway (a
	// second coordinator, a re-dispatch racing a lease expiry) is shed
	// with 503 instead of queued. Zero means GOMAXPROCS.
	MaxInflight int
	// Version overrides the build version used in handshakes (tests
	// only). Zero means cli.Version().
	Version string
	// Key, when non-empty, is the cluster's shared HMAC key: every unit
	// result is tagged with an HMAC-SHA256 over its identity and payload
	// so a keyed coordinator banks only authentic shards. Must match the
	// coordinator's key byte for byte.
	Key []byte
	// Logf receives operational logging. Nil means silent.
	Logf func(format string, args ...any)
}

// Worker executes (cell, rep-range) units on behalf of a coordinator.
type Worker struct {
	cfg     WorkerConfig
	version string
	sem     chan struct{}
	mux     *http.ServeMux

	reg                      *telemetry.Registry
	executed, busy, rejected *telemetry.Counter
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	version := cfg.Version
	if version == "" {
		version = cli.Version()
	}
	w := &Worker{
		cfg:     cfg,
		version: version,
		sem:     make(chan struct{}, cfg.MaxInflight),
		mux:     http.NewServeMux(),
		reg:     telemetry.NewRegistry(),
	}
	w.executed = w.reg.Counter(MetricWorkerUnitsExecuted, "work units executed to completion (a dispatch counts each of its units)")
	w.busy = w.reg.Counter(MetricWorkerBusy, "unit requests shed with 503 at the inflight bound")
	w.rejected = w.reg.Counter(MetricWorkerRejected, "unit requests rejected as malformed or version-skewed")
	w.reg.GaugeFunc("cluster_worker_inflight", "unit requests currently executing",
		func() float64 { return float64(len(w.sem)) })
	w.mux.HandleFunc("POST /cluster/v1/execute", w.handleExecute)
	w.mux.HandleFunc("GET /cluster/v1/healthz", w.handleHealthz)
	w.mux.HandleFunc("GET /healthz", w.handleHealthz)
	w.mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = w.reg.WritePrometheus(rw)
	})
	return w
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler { return w.mux }

// Metrics returns the worker's registry.
func (w *Worker) Metrics() *telemetry.Registry { return w.reg }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(rw, http.StatusOK, Hello{Proto: ProtocolVersion, Version: w.version, Slots: w.cfg.MaxInflight})
}

// maxUnitEnd caps a unit's rep range at the job spec's repetition cap.
const maxUnitEnd = 1_000_000

// maxUnitRequest bounds a unit request body; a longer body fails to
// decode.
const maxUnitRequest = 1 << 20

// decodeUnits decodes and validates an untrusted unit request before
// any work: the build must match (the handshake's guarantee, re-checked
// per request), the table and store config must be valid, and every
// unit's address must lie in the table — a scheme column, one of its
// (u, λ) grid points, a non-empty rep range within the spec cap. One
// bad unit rejects the request. It returns the table spec with the
// store applied, the units ready for ExecUnits, and their cell seeds.
func decodeUnits(r io.Reader, version string) (req UnitRequest, tspec experiment.Spec, units []experiment.Unit, cellSeeds []uint64, err error) {
	if err := json.NewDecoder(io.LimitReader(r, maxUnitRequest)).Decode(&req); err != nil {
		return req, tspec, nil, nil, fmt.Errorf("bad unit request: %w", err)
	}
	if req.Proto != ProtocolVersion || req.Version != version {
		return req, tspec, nil, nil, fmt.Errorf("version skew: got proto %d version %q, want proto %d version %q",
			req.Proto, req.Version, ProtocolVersion, version)
	}
	if tspec, err = experiment.TableByID(req.Table); err != nil {
		return req, tspec, nil, nil, err
	}
	// The store config is part of the unit's cell semantics: the worker
	// must simulate exactly what the coordinator will merge and bank.
	if err := req.Store.Validate(); err != nil {
		return req, tspec, nil, nil, err
	}
	tspec.Store = req.Store
	schemes := tspec.Schemes()
	addrs := req.Units()
	units = make([]experiment.Unit, len(addrs))
	cellSeeds = make([]uint64, len(addrs))
	for i, a := range addrs {
		if a.Col < 0 || a.Col >= len(schemes) ||
			!slices.Contains(tspec.Us, a.U) || !slices.Contains(tspec.Lambdas, a.Lambda) ||
			a.Start < 0 || a.End <= a.Start || a.End > maxUnitEnd {
			return req, tspec, nil, nil, fmt.Errorf("bad unit %d address: col %d u %v λ %v range [%d,%d)",
				i, a.Col, a.U, a.Lambda, a.Start, a.End)
		}
		units[i] = experiment.Unit(a)
		cellSeeds[i] = experiment.CellSeed(req.Seed, tspec.ID, a.U, a.Lambda, schemes[a.Col].Name())
	}
	return req, tspec, units, cellSeeds, nil
}

// handleExecute runs one dispatch: every unit in request order under a
// single inflight slot, answered with one signed result per unit.
func (w *Worker) handleExecute(rw http.ResponseWriter, r *http.Request) {
	req, tspec, units, cellSeeds, err := decodeUnits(r.Body, w.version)
	if err != nil {
		w.rejected.Inc()
		serve.WriteJSON(rw, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	default:
		w.busy.Inc()
		serve.WriteJSON(rw, http.StatusServiceUnavailable, errorBody{Error: "worker at inflight bound"})
		return
	}
	results := make([]UnitResult, len(units))
	err = experiment.ExecUnits(r.Context(), tspec, req.Seed, units, func(i int, data []byte) {
		// The worst-case kill site: the unit is fully computed but the
		// reply has not been written. A SIGKILL here loses the lease,
		// never the ledger — the coordinator re-dispatches and the merge
		// algebra makes the re-execution bit-identical.
		crashpoint.Hit("worker.unit")
		w.executed.Inc()
		res := UnitResult{CellSeed: cellSeeds[i], Start: units[i].Start, End: units[i].End, Data: data}
		if len(w.cfg.Key) > 0 {
			res.Auth = signUnit(w.cfg.Key, res.CellSeed, res.Start, res.End, res.Data)
		}
		results[i] = res
	})
	if err != nil {
		w.logf("cluster worker: dispatch of %d units of %s seed %d: %v", len(units), req.Table, req.Seed, err)
		serve.WriteJSON(rw, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	// Compact, unlike the operator-facing serve.WriteJSON: the reply is
	// machine-to-machine and mostly base64 shard bytes. Marshal cannot
	// fail on UnitResult's plain fields; a failed write costs only the
	// lease, which the coordinator re-dispatches.
	body, _ := json.Marshal(results)
	rw.Header().Set("Content-Type", "application/json")
	_, _ = rw.Write(body)
}

// Register performs one registration handshake with a coordinator,
// advertising the worker's reachable base URL.
func Register(ctx context.Context, client *http.Client, coordinatorURL, advertise string) error {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(RegisterRequest{
		Addr: advertise, Proto: ProtocolVersion, Version: cli.Version(),
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		normalizeAddr(coordinatorURL)+"/cluster/v1/register", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: register: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// RegisterLoop retries Register under the serve backoff law until it
// succeeds or ctx fires — the boot loop of a worker process whose
// coordinator may not be up yet.
func RegisterLoop(ctx context.Context, client *http.Client, coordinatorURL, advertise string, logf func(string, ...any)) error {
	h := fnv.New64a()
	h.Write([]byte(advertise))
	seed := h.Sum64()
	for attempt := 0; ; attempt++ {
		err := Register(ctx, client, coordinatorURL, advertise)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		d := serve.BackoffDelay(250*time.Millisecond, 5*time.Second, attempt, seed)
		if logf != nil {
			logf("cluster worker: register with %s failed (%v), retrying in %v", coordinatorURL, err, d)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
}
