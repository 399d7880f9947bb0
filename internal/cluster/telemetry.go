// Coordinator telemetry: the cluster families live on the embedded
// server's registry, so one registry feeds both /metrics (Prometheus
// text exposition) and /statusz (JSON, with a cluster section) — the
// two surfaces render the same instruments and cannot disagree, pinned
// by TestClusterStatuszMatchesMetrics. The job ledger is the server's
// simd_* families.

package cluster

import (
	"net/http"

	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Coordinator metric families. The rep ledger reuses the experiment
// names (grid_reps_total / grid_reps_recovered_total) with the same
// exactness contract: their sum equals cells × reps for every job the
// dispatcher finished, resumed or not.
const (
	MetricWorkersLive       = "cluster_workers_live"
	MetricWorkersRegistered = "cluster_workers_registered_total"
	MetricRegisterRejected  = "cluster_register_rejected_total"
	MetricWorkerDeaths      = "cluster_worker_deaths_total"
	MetricHeartbeatMisses   = "cluster_heartbeat_misses_total"
	MetricDispatches        = "cluster_dispatches_total"
	MetricUnitsDispatched   = "cluster_units_dispatched_total"
	MetricUnitsCompleted    = "cluster_units_completed_total"
	MetricUnitsRedispatched = "cluster_units_redispatched_total"
	MetricUnitsHedged       = "cluster_units_hedged_total"
	MetricHedgesWon         = "cluster_hedges_won_total"
	MetricUnitsRejected     = "cluster_units_rejected_total"
	MetricUnitsRejectedAuth = "cluster_units_rejected_auth_total"
	MetricUnitsDuplicate    = "cluster_units_duplicate_total"
	MetricUnitSeconds       = "cluster_unit_seconds"
)

type clusterMetrics struct {
	workersRegistered *telemetry.Counter
	registerRejected  *telemetry.Counter
	workerDeaths      *telemetry.Counter
	heartbeatMisses   *telemetry.Counter
	dispatches        *telemetry.Counter
	unitsDispatched   *telemetry.Counter
	unitsCompleted    *telemetry.Counter
	unitsRedispatched *telemetry.Counter
	unitsHedged       *telemetry.Counter
	hedgesWon         *telemetry.Counter
	unitsRejected     *telemetry.Counter
	unitsRejectedAuth *telemetry.Counter
	unitsDuplicate    *telemetry.Counter
	repsMerged        *telemetry.Counter
	repsRecovered     *telemetry.Counter
	unitSeconds       *telemetry.Histogram
}

func (c *Coordinator) initTelemetry(reg *telemetry.Registry) {
	c.met = &clusterMetrics{
		workersRegistered: reg.Counter(MetricWorkersRegistered, "workers accepted through the registration handshake"),
		registerRejected:  reg.Counter(MetricRegisterRejected, "registrations rejected for declared protocol or build-version skew"),
		workerDeaths:      reg.Counter(MetricWorkerDeaths, "workers marked dead after missed heartbeats"),
		heartbeatMisses:   reg.Counter(MetricHeartbeatMisses, "individual heartbeat probe failures"),
		dispatches:        reg.Counter(MetricDispatches, "requests sent to workers, each carrying a run of work units (re-dispatches and hedges included)"),
		unitsDispatched:   reg.Counter(MetricUnitsDispatched, "work units sent to workers (re-dispatches and hedges included)"),
		unitsCompleted:    reg.Counter(MetricUnitsCompleted, "work units banked (validated, journaled and merged exactly once)"),
		unitsRedispatched: reg.Counter(MetricUnitsRedispatched, "work units re-dispatched after a failed or expired lease"),
		unitsHedged:       reg.Counter(MetricUnitsHedged, "units of straggler dispatches duplicated to a second worker"),
		hedgesWon:         reg.Counter(MetricHedgesWon, "banked units whose winning response was the hedge duplicate"),
		unitsRejected:     reg.Counter(MetricUnitsRejected, "unit responses rejected by structural validation (byzantine or corrupt)"),
		unitsRejectedAuth: reg.Counter(MetricUnitsRejectedAuth, "unit responses rejected for a missing or invalid HMAC tag"),
		unitsDuplicate:    reg.Counter(MetricUnitsDuplicate, "valid unit responses dropped because the unit was already banked"),
		repsMerged:        reg.Counter(experiment.MetricReps, "repetitions merged from banked work units"),
		repsRecovered:     reg.Counter(experiment.MetricRepsRecovered, "repetitions restored from journaled checkpoints instead of re-executed"),
		unitSeconds:       reg.Histogram(MetricUnitSeconds, "per-dispatch round-trip wall time; a dispatch carries one or more units", nil),
	}
	reg.GaugeFunc(MetricWorkersLive, "registered workers currently passing heartbeats",
		func() float64 { return float64(c.WorkersLive()) })
}

// StatusCounters is the counter block of the /statusz cluster section,
// re-read from the same registry instruments /metrics renders.
type StatusCounters struct {
	WorkersRegistered int64 `json:"workers_registered"`
	RegisterRejected  int64 `json:"register_rejected"`
	WorkerDeaths      int64 `json:"worker_deaths"`
	HeartbeatMisses   int64 `json:"heartbeat_misses"`
	Dispatches        int64 `json:"dispatches"`
	UnitsDispatched   int64 `json:"units_dispatched"`
	UnitsCompleted    int64 `json:"units_completed"`
	UnitsRedispatched int64 `json:"units_redispatched"`
	UnitsHedged       int64 `json:"units_hedged"`
	HedgesWon         int64 `json:"hedges_won"`
	UnitsRejected     int64 `json:"units_rejected"`
	UnitsRejectedAuth int64 `json:"units_rejected_auth"`
	UnitsDuplicate    int64 `json:"units_duplicate"`
	RepsMerged        int64 `json:"reps_merged"`
	RepsRecovered     int64 `json:"reps_recovered"`
}

// Status is the cluster section of /statusz.
type Status struct {
	Proto        int            `json:"proto"`
	Version      string         `json:"version"`
	WorkersLive  int            `json:"workers_live"`
	WorkersTotal int            `json:"workers_total"`
	Counters     StatusCounters `json:"counters"`
}

// Status snapshots the membership and dispatch state.
func (c *Coordinator) Status() Status {
	m := c.met
	live, _ := c.live()
	c.mu.Lock()
	total := len(c.workers)
	c.mu.Unlock()
	return Status{
		Proto:        ProtocolVersion,
		Version:      c.cfg.Version,
		WorkersLive:  live,
		WorkersTotal: total,
		Counters: StatusCounters{
			WorkersRegistered: m.workersRegistered.Value(),
			RegisterRejected:  m.registerRejected.Value(),
			WorkerDeaths:      m.workerDeaths.Value(),
			HeartbeatMisses:   m.heartbeatMisses.Value(),
			Dispatches:        m.dispatches.Value(),
			UnitsDispatched:   m.unitsDispatched.Value(),
			UnitsCompleted:    m.unitsCompleted.Value(),
			UnitsRedispatched: m.unitsRedispatched.Value(),
			UnitsHedged:       m.unitsHedged.Value(),
			HedgesWon:         m.hedgesWon.Value(),
			UnitsRejected:     m.unitsRejected.Value(),
			UnitsRejectedAuth: m.unitsRejectedAuth.Value(),
			UnitsDuplicate:    m.unitsDuplicate.Value(),
			RepsMerged:        m.repsMerged.Value(),
			RepsRecovered:     m.repsRecovered.Value(),
		},
	}
}

// handleStatusz serves the server's /statusz body with the cluster
// section added.
func (c *Coordinator) handleStatusz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, struct {
		serve.Status
		Cluster Status `json:"cluster"`
	}{c.srv.Status(), c.Status()})
}
