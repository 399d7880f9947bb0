// Package repro is an energy-aware adaptive checkpointing library for
// embedded real-time systems, reproducing Li, Chen & Yu, "Performance
// Optimization for Energy-Aware Adaptive Checkpointing in Embedded
// Real-Time Systems" (DATE 2006).
//
// The library simulates a double-modular-redundancy (DMR) pair of
// DVS-capable embedded processors executing a deadline-constrained task
// in a fault-prone environment, and provides:
//
//   - the paper's adaptive checkpointing schemes with additional store
//     checkpoints (SCPs) or compare checkpoints (CCPs) between full
//     compare-and-store checkpoints (CSCPs), combined with two-speed
//     dynamic voltage scaling (AdaptiveSCP / AdaptiveCCP);
//   - the comparators: the static Poisson-arrival and k-fault-tolerant
//     schemes and the DATE'03 ADT_DVS scheme (Poisson, KFaultTolerant,
//     ADTDVS);
//   - the analytic renewal models behind the optimal checkpoint spacing
//     (OptimalSCPCount, OptimalCCPCount, ExpectedIntervalTime);
//   - a Monte-Carlo experiment harness that regenerates every table of
//     the paper's evaluation (RunTable, Tables).
//
// # Quickstart
//
//	t, _ := repro.TaskFromUtilization("demo", 0.78, 1, 10000, 5)
//	params := repro.Params{Task: t, Costs: repro.SCPCosts(), Lambda: 0.0014}
//	res := repro.Run(repro.AdaptiveSCP(), params, 42)
//	fmt.Printf("completed=%v energy=%.0f\n", res.Completed, res.Energy)
//
// See examples/ for complete programs and DESIGN.md for the system map.
package repro

import (
	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
)

// Task is a deadline-constrained real-time task: a worst-case cycle
// demand N (at minimum processor speed), a deadline D and a fault budget
// k. See TaskFromUtilization for the paper's parameterisation.
type Task = task.Task

// Costs is the checkpoint cost model: store time ts, compare time tcp and
// rollback time tr, in minimum-speed cycles.
type Costs = checkpoint.Costs

// CheckpointKind enumerates SCP / CCP / CSCP.
type CheckpointKind = checkpoint.Kind

// Checkpoint kinds, re-exported for API completeness.
const (
	SCP  = checkpoint.SCP
	CCP  = checkpoint.CCP
	CSCP = checkpoint.CSCP
)

// Params configures one simulated execution: the task, the checkpoint
// cost model, the fault rate λ and optionally a processor model and
// trace recorder.
type Params = sim.Params

// Result is the outcome of one simulated execution.
type Result = sim.Result

// Scheme is a checkpointing algorithm; obtain instances from the
// constructors below.
type Scheme = sim.Scheme

// Trace records the execution timeline of a run when attached to Params.
type Trace = sim.Trace

// RunContext is a reusable per-worker execution context: one engine
// (with its meter, fault-process and checkpoint-store buffers), one
// random stream and the schemes' planner. Loops that simulate many
// runs on one goroutine reuse a context via RunWithContext to avoid
// per-run allocation; results are bit-identical to the plain Run path.
type RunContext = sim.RunContext

// NewRunContext returns an empty context ready for its first run.
// A context must not be shared between goroutines.
func NewRunContext() *RunContext { return sim.NewRunContext() }

// CPUModel is a DVS processor description.
type CPUModel = cpu.Model

// Summary is an aggregated Monte-Carlo cell: P, E and diagnostics.
type Summary = stats.Summary

// TaskFromUtilization builds a task from the paper's parameters: a target
// utilisation U = N/(f·D) at speed f, a deadline d (in minimum-speed
// cycles) and a fault budget k.
func TaskFromUtilization(name string, u, f, d float64, k int) (Task, error) {
	return task.FromUtilization(name, u, f, d, k)
}

// SCPCosts returns the paper's §4.1 cost setting (comparison dominates:
// ts=2, tcp=20), where additional SCPs pay off.
func SCPCosts() Costs { return checkpoint.SCPSetting() }

// CCPCosts returns the paper's §4.2 cost setting (storage dominates:
// ts=20, tcp=2), where additional CCPs pay off.
func CCPCosts() Costs { return checkpoint.CCPSetting() }

// TwoSpeedCPU returns the paper's processor: f1 = 1, f2 = 2, negligible
// switch time, energy per cycle 2 at f1 and 4 at f2.
func TwoSpeedCPU() *CPUModel { return cpu.TwoSpeed() }

// AdaptiveSCP returns the paper's headline scheme adapchp_dvs_SCP
// (A_D_S): adaptive CSCP intervals subdivided by optimal store
// checkpoints, combined with two-speed DVS.
func AdaptiveSCP() Scheme { return core.NewAdaptDVSSCP() }

// AdaptiveCCP returns the paper's adapchp_dvs_CCP (A_D_C): adaptive CSCP
// intervals subdivided by optimal compare checkpoints, with DVS.
func AdaptiveCCP() Scheme { return core.NewAdaptDVSCCP() }

// ADTDVS returns the DATE'03 comparator (A_D): adaptive CSCP intervals
// with DVS but no additional checkpoints.
func ADTDVS() Scheme { return core.NewADTDVS() }

// Poisson returns the static Poisson-arrival comparator at a fixed
// frequency: constant CSCP interval sqrt(2C/λ).
func Poisson(freq float64) Scheme { return core.NewPoissonScheme(freq) }

// KFaultTolerant returns the static k-fault-tolerant comparator at a
// fixed frequency: constant CSCP interval sqrt(N·C/k).
func KFaultTolerant(freq float64) Scheme { return core.NewKFTScheme(freq) }

// AdaptiveSCPFixedSpeed returns the Fig. 3 scheme (adapchp-SCP): adaptive
// intervals with additional SCPs but no voltage scaling.
func AdaptiveSCPFixedSpeed(freq float64) Scheme { return core.NewAdaptSCP(freq) }

// AdaptiveCCPFixedSpeed is the CCP analogue of AdaptiveSCPFixedSpeed.
func AdaptiveCCPFixedSpeed(freq float64) Scheme { return core.NewAdaptCCP(freq) }

// Run simulates one task execution under the scheme, seeded
// deterministically: equal seeds give equal results.
func Run(s Scheme, p Params, seed uint64) Result {
	return s.Run(p, rng.New(seed))
}

// RunWithContext is Run through a reusable context: equal seeds give
// results bit-identical to Run, without the per-run allocations.
func RunWithContext(rc *RunContext, s Scheme, p Params, seed uint64) Result {
	return sim.RunScheme(rc, s, p, rc.Reseed(seed))
}

// MonteCarlo repeats Run reps times with independent seeds derived from
// seed and aggregates the paper's metrics: P (probability of timely
// completion) and E (mean energy over timely completions; NaN if none).
// The loop runs through one pooled internal context; per-rep seeds come
// from the base stream's successive outputs exactly as the uncontexted
// loop's Split calls did, so summaries are unchanged.
func MonteCarlo(s Scheme, p Params, reps int, seed uint64) Summary {
	src := rng.New(seed)
	sc := sim.GetContexts()
	rc := &sc.Run
	var cell stats.Cell
	for i := 0; i < reps; i++ {
		r := sim.RunScheme(rc, s, p, rc.Reseed(src.Uint64()))
		cell.ObserveRun(r.Completed, r.SilentCorruption,
			r.Energy, r.Time, float64(r.Faults), float64(r.Switches))
	}
	sim.PutContexts(sc) // skipped by a panicking scheme, dropping the pair
	return cell.Summary()
}

// OptimalSCPCount returns the number m of equal sub-intervals that
// minimises the expected execution time of a CSCP interval of length t
// when SCPs are placed between CSCPs (paper Fig. 2, procedure num_SCP).
func OptimalSCPCount(costs Costs, lambda, t float64) int {
	return analysis.NumSCP(analysis.Params{Costs: costs, Lambda: lambda}, t)
}

// OptimalCCPCount is the CCP analogue (paper §2.2).
func OptimalCCPCount(costs Costs, lambda, t float64) int {
	return analysis.NumCCP(analysis.Params{Costs: costs, Lambda: lambda}, t)
}

// ExpectedIntervalTime evaluates the renewal models R1 (kind SCP) or R2
// (kind CCP): the expected execution time of one CSCP interval of length
// t subdivided into sub-intervals of length sub.
func ExpectedIntervalTime(costs Costs, lambda float64, kind CheckpointKind, t, sub float64) float64 {
	p := analysis.Params{Costs: costs, Lambda: lambda}
	switch kind {
	case SCP:
		return analysis.R1(p, t, sub)
	case CCP:
		return analysis.R2(p, t, sub)
	default:
		panic("repro: ExpectedIntervalTime wants SCP or CCP")
	}
}

// ExperimentSpec identifies one of the paper's sub-tables (1a…4b).
type ExperimentSpec = experiment.Spec

// ExperimentTable is a completed sub-table with measured cells.
type ExperimentTable = experiment.Table

// ExperimentRunner runs sub-tables with deterministic seeding.
type ExperimentRunner = experiment.Runner

// Tables returns the specs of the paper's eight sub-tables.
func Tables() []ExperimentSpec { return experiment.Tables() }

// TableByID returns one sub-table spec by paper label ("1a" … "4b").
func TableByID(id string) (ExperimentSpec, error) { return experiment.TableByID(id) }

// RunTable regenerates one sub-table of the paper with the given
// repetitions per cell (0 means the paper's 10000) and base seed.
func RunTable(id string, reps int, seed uint64) (ExperimentTable, error) {
	spec, err := experiment.TableByID(id)
	if err != nil {
		return ExperimentTable{}, err
	}
	return experiment.Runner{Reps: reps, Seed: seed}.RunTable(spec)
}
