package serve

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/experiment"
	"repro/internal/mission"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// serveMetrics is the server's registry-backed instrument panel. The
// counters are the single source of truth for the job ledger: both
// /statusz and /metrics render these same instruments, so the two
// surfaces cannot disagree (pinned by TestStatuszMatchesMetrics).
type serveMetrics struct {
	accepted, shed    *telemetry.Counter
	completed, failed *telemetry.Counter
	canceled          *telemetry.Counter
	retries, panics   *telemetry.Counter
	cacheHits         *telemetry.Counter
	drainsClean       *telemetry.Counter
	drainsAborted     *telemetry.Counter
	unfinishedJobs    *telemetry.Counter
	latency           *telemetry.Histogram
	queueCap, workers *telemetry.Gauge

	// Journal and recovery instruments. The per-append families
	// (records/bytes/syncs/errors) are fed by the journal through the
	// sink; the boot-time ones are set once from the Recovery.
	journalCorrupt  *telemetry.Counter
	jobsRecovered   *telemetry.Counter
	jobsResumed     *telemetry.Counter
	shardsRecovered *telemetry.Counter
	replaySeconds   *telemetry.Gauge
}

// Metric family names exposed on /metrics. Exported-by-convention
// strings (tests and the chaos soak scrape them by name).
const (
	metricAccepted      = "simd_jobs_accepted_total"
	metricShed          = "simd_jobs_shed_total"
	metricCompleted     = "simd_jobs_completed_total"
	metricFailed        = "simd_jobs_failed_total"
	metricCanceled      = "simd_jobs_canceled_total"
	metricRetries       = "simd_job_retries_total"
	metricPanics        = "simd_job_panics_total"
	metricCacheHits     = "simd_result_cache_hits_total"
	metricLatency       = "simd_job_duration_seconds"
	metricQueueDepth    = "simd_queue_depth"
	metricQueueCap      = "simd_queue_capacity"
	metricWorkers       = "simd_workers"
	metricDraining      = "simd_draining"
	metricUptime        = "simd_uptime_seconds"
	metricDrainsClean   = "simd_drains_clean_total"
	metricDrainsAborted = "simd_drains_aborted_total"
	metricUnfinished    = "simd_shutdown_unfinished_jobs_total"

	// Journal families. The append-side ones are counted by the Journal
	// itself (through the server's sink); the replay-side ones are set
	// at boot from the Recovery.
	metricJournalRecords = "simd_journal_records_total"
	metricJournalBytes   = "simd_journal_bytes_total"
	metricJournalSyncs   = "simd_journal_syncs_total"
	metricJournalErrors  = "simd_journal_errors_total"
	metricJournalCorrupt = "simd_journal_corrupt_records_total"
	metricJournalSize    = "simd_journal_size_bytes"
	metricReplaySeconds  = "simd_journal_replay_seconds"
	metricJobsRecovered  = "simd_jobs_recovered_total"
	metricJobsResumed    = "simd_jobs_resumed_total"
	metricShardsRecBoot  = "simd_shards_recovered_total"
)

// initTelemetry builds the server's registry, tracer and sink, and
// registers every family — including the engine-side ones the
// experiment runner and mission loop report through the sink, so
// /metrics carries their help text even before the first job runs.
func (s *Server) initTelemetry() {
	reg := telemetry.NewRegistry()
	s.reg = reg
	s.tracer = telemetry.NewTracer(s.cfg.TraceCapacity)
	s.sink = telemetry.NewRegistrySink(reg, s.tracer)

	s.met = &serveMetrics{
		accepted:       reg.Counter(metricAccepted, "jobs admitted to the queue"),
		shed:           reg.Counter(metricShed, "submissions refused by the bounded queue or during drain"),
		completed:      reg.Counter(metricCompleted, "jobs finished in state done"),
		failed:         reg.Counter(metricFailed, "jobs finished in state failed"),
		canceled:       reg.Counter(metricCanceled, "jobs finished in state canceled (client or shutdown)"),
		retries:        reg.Counter(metricRetries, "transient job attempts retried with backoff"),
		panics:         reg.Counter(metricPanics, "job attempts that panicked (isolated, never fatal)"),
		cacheHits:      reg.Counter(metricCacheHits, "grid jobs answered from the content-addressed result cache at admission (counted as accepted and completed)"),
		drainsClean:    reg.Counter(metricDrainsClean, "shutdowns that drained the backlog within the deadline"),
		drainsAborted:  reg.Counter(metricDrainsAborted, "shutdowns that hit the drain deadline and aborted jobs"),
		unfinishedJobs: reg.Counter(metricUnfinished, "jobs left unfinished at shutdown (resume from the journal on next boot)"),
		latency: reg.Histogram(metricLatency,
			"per-job wall time from start to terminal state", nil),
		queueCap: reg.Gauge(metricQueueCap, "admission queue capacity"),
		workers:  reg.Gauge(metricWorkers, "job executor pool size"),

		journalCorrupt:  reg.Counter(metricJournalCorrupt, "journal records skipped on replay for CRC or structural corruption"),
		jobsRecovered:   reg.Counter(metricJobsRecovered, "jobs reconstructed from the journal at boot"),
		jobsResumed:     reg.Counter(metricJobsResumed, "unfinished jobs re-queued from the journal at boot"),
		shardsRecovered: reg.Counter(metricShardsRecBoot, "shard checkpoints restored from the journal at boot"),
		replaySeconds:   reg.Gauge(metricReplaySeconds, "wall time of the boot journal replay"),
	}
	reg.Counter(metricJournalRecords, "records appended to the job journal")
	reg.Counter(metricJournalBytes, "bytes appended to the job journal (frames included)")
	reg.Counter(metricJournalSyncs, "journal fsync barriers issued")
	reg.Counter(metricJournalErrors, "journal append or sync failures (job proceeds, durability degraded)")
	reg.GaugeFunc(metricJournalSize, "current journal size in bytes (0 when journalling is off)",
		func() float64 {
			if s.cfg.Journal == nil {
				return 0
			}
			return float64(s.cfg.Journal.Size())
		})
	s.met.queueCap.Set(float64(cap(s.queue)))
	s.met.workers.Set(float64(s.cfg.Workers))
	reg.GaugeFunc(metricQueueDepth, "jobs waiting in the admission queue",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc(metricDraining, "1 while the server refuses new work for shutdown",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.draining {
				return 1
			}
			return 0
		})
	reg.GaugeFunc(metricUptime, "seconds since the server started",
		func() float64 { return time.Since(s.start).Seconds() })

	// Engine-side families, pre-registered for help text; the sink
	// reaches the same instruments by name.
	reg.Counter(experiment.MetricCellsCompleted, "grid cells completed across all jobs")
	reg.Counter(experiment.MetricCellsFailed, "grid cells failed or panicked across all jobs")
	reg.Counter(experiment.MetricReps, "Monte-Carlo repetitions simulated across completed cells")
	reg.Histogram(experiment.MetricCellSeconds, "per-grid-cell wall time", nil)
	reg.Counter(experiment.MetricPlannerHits, "always 0: plans are computed directly, without a plan cache")
	reg.Counter(experiment.MetricPlannerMisses, "interval plans computed in worker run contexts")
	reg.Counter(experiment.MetricShards, "rep-shard units executed by the work-stealing grid scheduler")
	reg.Counter(experiment.MetricShardsScalar, "rep-shard units among grid_shards_total that ran the scalar reference loop instead of a batch kernel")
	reg.Counter(experiment.MetricShardsStolen, "rep-shard units moved between worker deques by stealing")
	reg.Counter(experiment.MetricShardRetries, "rep-shard chaos re-executions (discarded, never double-merged)")
	for _, name := range experiment.StoreCounterNames() {
		reg.Counter(name, "tiered checkpoint store accounting (internal/store), summed across all workers")
	}
	for t := 0; t < store.MaxTiers; t++ {
		reg.Histogram(experiment.MetricStoreTierRestoreCycles(t),
			"cycles spent restoring images from this store tier", nil)
	}
	reg.Counter(mission.MetricFrames, "mission frames flown across all jobs")
	reg.Counter(mission.MetricMisses, "mission frames that missed their deadline")
	reg.Counter(mission.MetricWrongFrames, "mission frames completed with silent corruption")
	reg.Counter(mission.MetricDegradedFrames, "mission frames flown in simplex mode")
	reg.Counter(mission.MetricRuns, "missions flown to a terminal reason")
}

// Metrics returns the server's registry — the same instance /metrics
// renders — so embedders can expose it elsewhere or add their own
// instruments.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Tracer returns the server's run tracer (the /trace buffer).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// trace emits one run-trace event.
func (s *Server) trace(name string, attrs map[string]any) {
	s.tracer.Emit(name, attrs)
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// handleTrace streams the buffered run-trace events as JSONL, newest
// last. ?n=100 limits the output to the newest n events.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	last := 0
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad n: want a non-negative integer"})
			return
		}
		last = n
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_ = s.tracer.WriteJSONL(w, last)
}

// registerDebug mounts the telemetry and profiling surface:
//
//	GET /metrics        Prometheus text exposition
//	GET /trace          run-trace JSONL (?n= newest n events)
//	GET /debug/pprof/*  the standard Go profiling endpoints
func (s *Server) registerDebug(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
