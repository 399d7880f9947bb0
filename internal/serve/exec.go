package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/mission"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
)

// schemeByName resolves the paper's scheme columns. Baselines run at f1;
// clients that need other operating points should grid over utilisation
// instead (the tables are parameterised the same way).
func schemeByName(name string) (sim.Scheme, error) {
	switch name {
	case "Poisson":
		return core.NewPoissonScheme(1), nil
	case "k-f-t":
		return core.NewKFTScheme(1), nil
	case "A_D":
		return core.NewADTDVS(), nil
	case "A_D_S":
		return core.NewAdaptDVSSCP(), nil
	case "A_D_C":
		return core.NewAdaptDVSCCP(), nil
	}
	return nil, fmt.Errorf("serve: unknown scheme %q (want Poisson, k-f-t, A_D, A_D_S or A_D_C)", name)
}

func costsBySetting(setting string) checkpoint.Costs {
	if setting == "ccp" {
		return checkpoint.CCPSetting()
	}
	return checkpoint.SCPSetting()
}

// jsonFloat marshals NaN and infinities as null — stats summaries carry
// NaN energies for cells with no timely completion, which encoding/json
// refuses to emit as numbers.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// GridCell is one scheme column of a grid-job result row.
type GridCell struct {
	Scheme string    `json:"scheme"`
	Done   bool      `json:"done"`
	P      jsonFloat `json:"p"`
	PCI    jsonFloat `json:"p_ci"`
	E      jsonFloat `json:"e"`
	ECI    jsonFloat `json:"e_ci"`
	SDC    jsonFloat `json:"sdc,omitempty"`
}

// GridRow is one grid point of a grid-job result.
type GridRow struct {
	U      float64    `json:"u"`
	Lambda float64    `json:"lambda"`
	Cells  []GridCell `json:"cells"`
}

// GridResult is the outcome of a grid job: the paper sub-table the
// cmd/tables CLI prints, as JSON.
type GridResult struct {
	Table string    `json:"table"`
	Reps  int       `json:"reps"`
	Rows  []GridRow `json:"rows"`
}

// SingleResult is the outcome of a single-trajectory job. Time and
// energy are reported both as floats (for humans) and as exact IEEE-754
// bits (for determinism checks: the chaos suite compares these against
// the golden trajectories).
type SingleResult struct {
	Scheme     string  `json:"scheme"`
	Completed  bool    `json:"completed"`
	Reason     string  `json:"reason,omitempty"`
	Time       float64 `json:"time"`
	Energy     float64 `json:"energy"`
	TimeBits   uint64  `json:"time_bits"`
	EnergyBits uint64  `json:"energy_bits"`
	Faults     int     `json:"faults"`
	Detections int     `json:"detections"`
	CSCPs      int     `json:"cscps"`
	Subs       int     `json:"subs"`
	Switches   int     `json:"switches"`
}

// MissionResult is the outcome of a mission job.
type MissionResult struct {
	Scheme      string    `json:"scheme"`
	Reason      string    `json:"reason"`
	Frames      int       `json:"frames"`
	Misses      int       `json:"misses"`
	WrongFrames int       `json:"wrong_frames"`
	Degraded    int       `json:"degraded_frames"`
	EnergyUsed  jsonFloat `json:"energy_used"`
	FrameE      jsonFloat `json:"frame_energy"`
	FinalCharge jsonFloat `json:"final_charge"`
}

// GridHooks carries a grid attempt's progress and crash-recovery
// plumbing into whichever engine runs it. Progress receives work-item
// counts (cells in the local engine, dispatched units in a remote one)
// and is always set. OnShard journals each newly completed rep-shard;
// Recovered replays the checkpoints banked by earlier attempts or a
// previous boot. Both are nil when journalling is off or the job holds
// no checkpoints.
type GridHooks struct {
	Progress  func(done, total int)
	OnShard   func(cellSeed uint64, start, end int, data []byte)
	Recovered func(cellSeed uint64) []experiment.ShardCheckpoint
}

// GridExecutor runs one attempt of a grid job outside the server's own
// experiment runner — the cluster coordinator dispatching (cell,
// rep-range) units to workers. It must honour the hooks as the local
// engine does: merge what Recovered returns instead of recomputing it,
// report every newly banked shard through OnShard, and return an error
// wrapping ctx.Err() when ctx ends the attempt.
type GridExecutor func(ctx context.Context, spec JobSpec, hooks GridHooks) (GridResult, error)

// execute runs one attempt of a job's workload under ctx. Grid jobs go
// to the configured GridExecutor, or to the local experiment runner
// when there is none. The engines report their own telemetry (grid cell
// and mission frame accounting) through the server's sink, so engine
// metrics land on /metrics alongside the job ledger.
func (s *Server) execute(ctx context.Context, spec JobSpec, hooks GridHooks) (any, error) {
	switch spec.Kind {
	case JobGrid:
		if s.cfg.Grid != nil {
			return s.cfg.Grid(ctx, spec, hooks)
		}
		return executeGrid(ctx, spec, s.cfg.GridWorkers, s.sink, hooks)
	case JobSingle:
		return executeSingle(ctx, spec)
	case JobMission:
		return executeMission(ctx, spec, s.sink)
	}
	return nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
}

func executeGrid(ctx context.Context, spec JobSpec, workers int, sink telemetry.Sink, hooks GridHooks) (any, error) {
	tspec, err := experiment.TableByID(spec.Table)
	if err != nil {
		return nil, err
	}
	// The store config is part of the cell semantics: grid cells run
	// under the bounded-set store model when the job asks for one.
	tspec.Store = spec.Store
	runner := experiment.Runner{
		Reps:      spec.Reps,
		Seed:      spec.Seed,
		Workers:   workers,
		ShardSize: spec.ShardSize,
		OnCell:    hooks.Progress,
		Sink:      sink,
		OnShard:   hooks.OnShard,
		Recovered: hooks.Recovered,
	}
	tbl, err := runner.RunTableCtx(ctx, tspec)
	if err != nil {
		return nil, err
	}
	return GridResultFromTable(tbl), nil
}

// GridResultFromTable projects a finished experiment table into the
// service's JSON result shape. Exported so the cluster's GridExecutor
// renders the table it folded from remote shards through the identical
// encoder — byte-identical result JSON is the cluster's core invariant,
// and it must not depend on which process does the rendering.
func GridResultFromTable(tbl experiment.Table) GridResult {
	out := GridResult{Table: tbl.Spec.ID, Reps: tbl.Reps}
	for _, row := range tbl.Rows {
		r := GridRow{U: row.U, Lambda: row.Lambda}
		for _, c := range row.Cells {
			r.Cells = append(r.Cells, GridCell{
				Scheme: c.Scheme, Done: c.Done,
				P: jsonFloat(c.P), PCI: jsonFloat(c.PCI),
				E: jsonFloat(c.E), ECI: jsonFloat(c.ECI),
				SDC: jsonFloat(c.SDC),
			})
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// singleParams builds the simulation parameters of a single/mission
// spec, matching the golden-trajectory parameterisation exactly
// (deadline 10000, utilisation against f1).
func singleParams(spec JobSpec) (sim.Params, error) {
	tk, err := task.FromUtilization("serve", spec.U, 1, experiment.Deadline, spec.K)
	if err != nil {
		return sim.Params{}, err
	}
	// Mission specs never carry a store (Validate rejects them), so this
	// only bites single-trajectory jobs.
	return sim.Params{Task: tk, Costs: costsBySetting(spec.Setting), Lambda: spec.Lambda, Store: spec.Store}, nil
}

func executeSingle(ctx context.Context, spec JobSpec) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := schemeByName(spec.Scheme)
	if err != nil {
		return nil, err
	}
	p, err := singleParams(spec)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// A fresh source per attempt: retries replay the identical
	// trajectory, so a completed result is bit-for-bit independent of
	// how many chaos-failed attempts preceded it.
	res := s.Run(p, rng.New(spec.Seed))
	return SingleResult{
		Scheme: s.Name(), Completed: res.Completed, Reason: string(res.Reason),
		Time: res.Time, Energy: res.Energy,
		TimeBits:   math.Float64bits(res.Time),
		EnergyBits: math.Float64bits(res.Energy),
		Faults:     res.Faults, Detections: res.Detections,
		CSCPs: res.CSCPs, Subs: res.SubCheckpoints, Switches: res.Switches,
	}, nil
}

func executeMission(ctx context.Context, spec JobSpec, sink telemetry.Sink) (any, error) {
	s, err := schemeByName(spec.Scheme)
	if err != nil {
		return nil, err
	}
	frame, err := singleParams(spec)
	if err != nil {
		return nil, err
	}
	cfg := mission.Config{
		Frame:           frame,
		Scheme:          s,
		BatteryCapacity: spec.Battery,
		MaxFrames:       spec.Frames,
		Sink:            sink,
	}
	rep, err := mission.RunCtx(ctx, cfg, spec.Seed)
	if err != nil {
		return nil, err
	}
	return MissionResult{
		Scheme: s.Name(), Reason: string(rep.Reason),
		Frames: rep.Frames, Misses: rep.Misses,
		WrongFrames: rep.WrongFrames, Degraded: rep.DegradedFrames,
		EnergyUsed:  jsonFloat(rep.EnergyUsed),
		FrameE:      jsonFloat(rep.FrameEnergy.E),
		FinalCharge: jsonFloat(rep.FinalCharge),
	}, nil
}
