// Package serve is the long-running simulation service: an HTTP/JSON
// job API over the experiment and mission engines, built so that the
// robustness of the *server* matches the robustness the schemes it
// simulates are about. The load-bearing properties, each pinned by the
// chaos soak suite:
//
//   - Bounded admission: the queue has a fixed depth; when it is full
//     (or the server is draining) submission is refused with 503 and a
//     Retry-After hint instead of queueing unboundedly. Every refusal
//     is counted (shed is reported, never silent).
//   - Per-job deadlines: each accepted job runs under a
//     context.WithTimeout derived from the server's base context, and
//     the engines poll it, so a wedged or oversized job cannot hold a
//     worker past its deadline.
//   - Panic isolation: a panicking job attempt fails that job — with
//     the stack recorded on the job — and never the process.
//   - Retry: attempts that fail for transient reasons (or whose attempt
//     context was cancelled while the job's deadline had not fired) are
//     retried with exponential backoff and deterministic jitter.
//   - Graceful drain: Shutdown stops admission, lets workers finish the
//     accepted backlog until the drain deadline, then aborts the rest
//     via the base context. Unfinished jobs are not persisted separately:
//     the journal (journal.go) already holds their accepted records
//     without finished records, which is exactly what the next boot
//     resumes. A clean-shutdown record marks the drain itself.
//   - Crash safety: with a journal configured, every accepted job and
//     every completed grid shard is durable; a kill -9 at any point
//     resumes on the next boot with bit-identical results (pinned by the
//     kill-and-recover soak).
//   - Content-addressed results: a finished grid table is cached under
//     its JobKey, so an identical grid job is answered in its 202
//     without running.
//
// Grid jobs run on the local experiment runner, or on a GridExecutor
// (Config.Grid) — the cluster coordinator's remote dispatcher — behind
// the same front end.
package serve

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/store"
)

// JobKind selects the workload of a job.
type JobKind string

// Supported job kinds.
const (
	// JobGrid runs one paper sub-table (experiment.RunTableCtx).
	JobGrid JobKind = "grid"
	// JobMission flies one long-horizon mission (mission.RunCtx).
	JobMission JobKind = "mission"
	// JobSingle simulates a single trajectory — one scheme, one grid
	// point, one seed — and reports the exact result bits. This is the
	// cheapest job and the one the chaos suite pins against the golden
	// trajectories.
	JobSingle JobKind = "single"
)

// JobSpec is the client-supplied description of a job, as posted to
// POST /v1/jobs.
type JobSpec struct {
	Kind JobKind `json:"kind"`

	// Seed is the base seed for all kinds; runs are reproducible per
	// seed.
	Seed uint64 `json:"seed"`

	// Table (grid): the paper sub-table label, "1a".."4b".
	Table string `json:"table,omitempty"`
	// Reps (grid): Monte-Carlo repetitions per cell; zero means the
	// paper's default.
	Reps int `json:"reps,omitempty"`
	// ShardSize (grid): repetitions per work-stealing shard unit; zero
	// means the engine default. A shard is also the batch the
	// structure-of-arrays kernel executes in one flat pass, so this
	// knob sets the kernel's batch width — still purely a
	// scheduling/amortisation knob, results are bit-identical for
	// every value.
	ShardSize int `json:"shard_size,omitempty"`

	// Scheme (single, mission): Poisson | k-f-t | A_D | A_D_S | A_D_C.
	Scheme string `json:"scheme,omitempty"`
	// Setting (single, mission): cost setting, "scp" (default) or "ccp".
	Setting string `json:"setting,omitempty"`
	// U (single, mission): task utilisation; zero means 0.78.
	U float64 `json:"u,omitempty"`
	// Lambda (single, mission): transient fault rate.
	Lambda float64 `json:"lambda,omitempty"`
	// K (single, mission): per-frame fault budget; zero means 5.
	K int `json:"k,omitempty"`

	// Frames (mission): frame budget; zero means 10000.
	Frames int `json:"frames,omitempty"`
	// Battery (mission): pack capacity in V²·cycles; zero means 3e8.
	Battery float64 `json:"battery,omitempty"`

	// Store (grid, single): tiered checkpoint store configuration; every
	// cell/trajectory runs under the bounded-set store model
	// (internal/store). Omitted or null keeps the paper's free infinite
	// store — results bit-identical to pre-store servers. The config is
	// part of the result's identity: cluster dispatch forwards it in
	// unit requests and hashes it into the job key.
	Store *store.Config `json:"store,omitempty"`

	// DeadlineMS is the per-job deadline in milliseconds. Zero takes the
	// server default; values above the server maximum are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxRetries overrides the server's retry budget for this job
	// (attempts = retries + 1). Zero means the server default; negative
	// means no retries.
	MaxRetries int `json:"max_retries,omitempty"`
}

// withDefaults fills the zero values a client may omit.
func (s JobSpec) withDefaults() JobSpec {
	if s.Setting == "" {
		s.Setting = "scp"
	}
	if s.U == 0 {
		s.U = 0.78
	}
	if s.K == 0 {
		s.K = 5
	}
	switch s.Kind {
	case JobMission:
		if s.Frames == 0 {
			s.Frames = 10000
		}
		if s.Battery == 0 {
			s.Battery = 3e8
		}
	}
	return s
}

// Validate rejects specs the executors cannot run, before admission —
// a malformed spec must cost a 400, never a worker.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case JobGrid:
		if s.Table == "" {
			return fmt.Errorf("serve: grid job needs a table label (1a..4b)")
		}
		if _, err := experiment.TableByID(s.Table); err != nil {
			return err
		}
		if s.Reps < 0 || s.Reps > 1_000_000 {
			return fmt.Errorf("serve: grid reps %d out of range (0..1000000)", s.Reps)
		}
		if s.ShardSize < 0 {
			return fmt.Errorf("serve: negative shard size %d", s.ShardSize)
		}
	case JobSingle, JobMission:
		if s.Scheme == "" {
			return fmt.Errorf("serve: %s job needs a scheme", s.Kind)
		}
		if _, err := schemeByName(s.Scheme); err != nil {
			return err
		}
		if s.Setting != "scp" && s.Setting != "ccp" {
			return fmt.Errorf("serve: unknown setting %q (want scp or ccp)", s.Setting)
		}
		if s.U <= 0 || s.U > 4 {
			return fmt.Errorf("serve: utilisation %v out of range (0, 4]", s.U)
		}
		if s.Lambda < 0 || s.Lambda > 1 {
			return fmt.Errorf("serve: fault rate %v out of range [0, 1]", s.Lambda)
		}
		if s.K < 0 || s.K > 1000 {
			return fmt.Errorf("serve: fault budget %d out of range", s.K)
		}
		if s.Kind == JobMission {
			if s.Frames <= 0 || s.Frames > 10_000_000 {
				return fmt.Errorf("serve: mission frames %d out of range", s.Frames)
			}
			if s.Battery <= 0 {
				return fmt.Errorf("serve: non-positive battery capacity %v", s.Battery)
			}
		}
	default:
		return fmt.Errorf("serve: unknown job kind %q (want grid, mission or single)", s.Kind)
	}
	if s.Store != nil {
		if s.Kind == JobMission {
			return fmt.Errorf("serve: mission jobs do not take a store config")
		}
		if err := s.Store.Validate(); err != nil {
			return err
		}
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("serve: negative deadline %dms", s.DeadlineMS)
	}
	return nil
}

// JobState is the lifecycle position of a job. Transitions:
//
//	queued → running → done | failed | canceled
//	queued → canceled                 (cancel or shutdown before start)
type JobState string

// Job states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether a state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is the server-side record of one accepted job. All fields are
// guarded by the server's mutex; View snapshots them for the API.
type Job struct {
	ID   string
	Spec JobSpec

	State    JobState
	Attempts int
	// Error is the final failure message (failed/canceled states).
	Error string
	// PanicStack is the recovered goroutine stack of the last panicking
	// attempt, if any.
	PanicStack string
	// CellsDone/CellsTotal report local grid progress while running;
	// UnitsDone/UnitsTotal report it when a GridExecutor runs the job.
	CellsDone, CellsTotal int
	UnitsDone, UnitsTotal int
	// CacheHit marks a grid job answered from the result cache at
	// admission, without running.
	CacheHit bool
	// Result is the kind-specific outcome (GridResult, SingleResult,
	// MissionResult) once State is done.
	Result any

	// ShutdownAborted marks a job that was still queued or running when
	// the drain deadline fired. Such jobs get no finished journal record
	// — that absence is what makes the next boot resume them.
	ShutdownAborted bool

	// Resumed marks a job reconstructed from the journal and re-queued
	// at boot rather than submitted over HTTP in this process.
	Resumed bool

	Enqueued, Started, Finished time.Time

	// cancelRequested records a client cancellation (DELETE) so the
	// worker can classify the resulting context error.
	cancelRequested bool
	// cancel aborts the running job's context; nil until the job starts.
	cancel func()
	// key is the job's result-cache address ("" for non-grid jobs).
	key string
	// prevAttempts is the attempt count carried over from before a
	// restart, so attempt numbering continues across boots.
	prevAttempts int
	// shards holds the grid shard checkpoints this job has banked —
	// restored from the journal at boot and appended by OnShard as the
	// job runs. The merge algebra is order-independent, so replaying
	// them on the next attempt is bit-identical to never having crashed.
	shards map[uint64][]experiment.ShardCheckpoint
}

// View is the JSON projection of a Job.
type View struct {
	ID         string   `json:"id"`
	Kind       JobKind  `json:"kind"`
	State      JobState `json:"state"`
	Attempts   int      `json:"attempts,omitempty"`
	Error      string   `json:"error,omitempty"`
	Panicked   bool     `json:"panicked,omitempty"`
	CellsDone  int      `json:"cells_done,omitempty"`
	CellsTotal int      `json:"cells_total,omitempty"`
	UnitsDone  int      `json:"units_done,omitempty"`
	UnitsTotal int      `json:"units_total,omitempty"`
	CacheHit   bool     `json:"cache_hit,omitempty"`
	Result     any      `json:"result,omitempty"`
	Resumed    bool     `json:"resumed,omitempty"`
	ElapsedMS  int64    `json:"elapsed_ms,omitempty"`
}

func (j *Job) view() View {
	v := View{
		ID:         j.ID,
		Kind:       j.Spec.Kind,
		State:      j.State,
		Attempts:   j.Attempts,
		Error:      j.Error,
		Panicked:   j.PanicStack != "",
		CellsDone:  j.CellsDone,
		CellsTotal: j.CellsTotal,
		UnitsDone:  j.UnitsDone,
		UnitsTotal: j.UnitsTotal,
		CacheHit:   j.CacheHit,
		Result:     j.Result,
		Resumed:    j.Resumed,
	}
	if !j.Started.IsZero() {
		end := j.Finished
		if end.IsZero() {
			end = time.Now()
		}
		v.ElapsedMS = end.Sub(j.Started).Milliseconds()
	}
	return v
}

// ManifestEntry is one unfinished job persisted at shutdown.
type ManifestEntry struct {
	ID       string   `json:"id"`
	Spec     JobSpec  `json:"spec"`
	State    JobState `json:"state"`
	Attempts int      `json:"attempts"`
	Error    string   `json:"error,omitempty"`
}

// Manifest is the in-memory unfinished-job report Shutdown returns:
// every accepted job that did not reach a clean terminal outcome before
// the drain deadline. It is informational — the journal, not this
// report, is what the next boot resumes from.
type Manifest struct {
	// Drained is false when the drain deadline fired and running jobs
	// were aborted.
	Drained bool            `json:"drained"`
	Jobs    []ManifestEntry `json:"jobs"`
}
