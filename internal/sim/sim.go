// Package sim is the Monte-Carlo execution engine of the reproduction:
// it simulates one DMR (double-modular-redundancy) task execution under a
// checkpointing scheme, with Poisson fault injection, rollback recovery,
// deadline accounting and V²-per-cycle energy metering.
//
// The engine works at interval granularity, which is exactly the
// resolution of the paper's model: useful execution advances in spans
// separated by checkpoint operations; faults arrive per unit of useful
// execution time (checkpoint operations are assumed fault-protected, as
// in the paper's renewal analysis); a fault is detected at the next
// *comparison* point (CCP or CSCP) and repaired by rolling back to the
// newest *stored* state whose two replica copies agree (SCP or CSCP).
//
// Five schemes from the paper's §4 are provided in schemes.go:
// Poisson-arrival, k-fault-tolerant, ADT_DVS (A_D), adapchp_dvs_SCP
// (A_D_S) and adapchp_dvs_CCP (A_D_C), plus the fixed-speed adaptive
// variants of Figs. 3.
package sim

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/task"
)

// Replicas is the redundancy degree of the paper's platform (DMR).
const Replicas = 2

// epsilon below which remaining work counts as finished (guards float
// accumulation noise when subtracting interval work from the budget).
const epsWork = 1e-6

// EpsWork is the work epsilon exported for scheme implementations.
const EpsWork = epsWork

// Params bundles everything a scheme needs to simulate one execution.
type Params struct {
	// Task is the workload: Cycles (N, at minimum speed), Deadline (D)
	// and FaultBudget (k).
	Task task.Task
	// Costs is the checkpoint cost model (ts, tcp, tr) in minimum-speed
	// cycles.
	Costs checkpoint.Costs
	// Lambda is the fault arrival rate per unit of useful execution time.
	Lambda float64
	// CPU is the DVS processor model. Nil defaults to cpu.TwoSpeed().
	CPU *cpu.Model
	// MaxIntervals guards against pathological non-termination; zero
	// means the default (1e7). The engine provably advances wall time
	// every interval, so the guard only fires on internal bugs.
	MaxIntervals int
	// Trace, when non-nil, records the execution timeline (checkpoint,
	// fault, detection, rollback and speed events) for inspection.
	Trace *Trace
	// Replicas overrides the redundancy degree (energy is metered across
	// all replicas). Zero means the paper's DMR pair; the TMR extension
	// passes 3.
	Replicas int
	// FaultProcess, when non-nil, replaces the homogeneous Poisson fault
	// process with a custom arrival process (e.g. fault.MMPPProcess for
	// burst environments) constructed per run from the run's random
	// stream. Lambda is still consulted by the *policies* as the scalar
	// rate estimate — set it to the process's stationary Rate() for a
	// fair comparison.
	FaultProcess func(src *rng.Source) fault.Process
	// Imperfect, when non-nil, makes the fault-tolerance machinery itself
	// fallible: comparisons may miss divergence (detection coverage < 1),
	// stored checkpoints may be unusable at recovery time (rollback then
	// cascades to older stores, restarting from the beginning as the last
	// resort), and checkpoint operations may themselves be struck by
	// faults. Nil — or any value whose IsIdeal() is true — reproduces the
	// paper's ideal assumptions bit-for-bit (the seed code path, no
	// additional randomness consumed). See internal/fault.Imperfection.
	Imperfect *fault.Imperfection
	// Store, when non-nil, replaces the paper's free infinite stable
	// storage with a tiered checkpoint store holding a bounded set of
	// images under an online maintenance policy (internal/store): writes
	// and restores pay tier cycle costs, rollback cascades down tiers
	// and older images when the ideal target was evicted or corrupted,
	// and an empty set forces a restart from scratch. Nil — and also any
	// store whose tiers are unlimited, zero-cost and invulnerable —
	// reproduces the seed trajectories bit for bit.
	Store *store.Config
	// StoreStats, when non-nil alongside Store, receives the store
	// activity counters (evictions, per-tier writes/restores, rollback
	// depth histogram). The caller owns the value — one per worker
	// goroutine, no sharing — so the engine's hot path stays free of
	// atomics; nil discards the counts.
	StoreStats *store.Stats
}

// ImperfectFT reports whether p runs the imperfect fault-tolerance
// model: a non-nil Imperfect that is not ideal.
func (p Params) ImperfectFT() bool {
	return p.Imperfect != nil && !p.Imperfect.IsIdeal()
}

// CheckpointStore returns the store a repetition under p keeps its
// checkpoint images in: Params.Store when given, the paper's free
// store on a storeless imperfect run, and nil on the ideal storeless
// path, which keeps none.
func (p Params) CheckpointStore() *store.Config {
	if p.Store == nil && p.ImperfectFT() {
		return paperStore
	}
	return p.Store
}

// ReplicaCount returns the redundancy degree (default DMR).
func (p Params) ReplicaCount() int {
	if p.Replicas <= 0 {
		return Replicas
	}
	return p.Replicas
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := p.Task.Validate(); err != nil {
		return err
	}
	if err := p.Costs.Validate(); err != nil {
		return err
	}
	if p.Lambda < 0 || math.IsNaN(p.Lambda) || math.IsInf(p.Lambda, 0) {
		return fmt.Errorf("sim: invalid λ %v", p.Lambda)
	}
	if p.Imperfect != nil {
		if err := p.Imperfect.Validate(); err != nil {
			return err
		}
	}
	if err := p.Store.Validate(); err != nil {
		return err
	}
	return nil
}

// CPUModel returns the processor model, defaulting to the paper's
// two-speed part.
func (p Params) CPUModel() *cpu.Model {
	if p.CPU == nil {
		return cpu.TwoSpeed()
	}
	return p.CPU
}

// MaxIntervalBudget returns the interval-count guard.
func (p Params) MaxIntervalBudget() int {
	if p.MaxIntervals <= 0 {
		return 1e7
	}
	return p.MaxIntervals
}

// FailReason explains why a run did not complete on time.
type FailReason string

// Failure reasons.
const (
	// FailNone marks a completed run.
	FailNone FailReason = ""
	// FailInfeasible: the remaining work could not fit in the remaining
	// deadline even fault-free at the current speed (the pseudocode's
	// "break with task failure").
	FailInfeasible FailReason = "infeasible"
	// FailDeadline: the task finished its work after the deadline.
	FailDeadline FailReason = "deadline"
	// FailGuard: the interval-count guard fired (indicates a bug).
	FailGuard FailReason = "interval-guard"
	// FailBadConfig: the scheme's configuration does not fit the
	// platform (e.g. a fixed operating frequency the CPU model lacks).
	// Returned instead of panicking so one bad cell cannot take a
	// worker goroutine down with it.
	FailBadConfig FailReason = "bad-config"
)

// Result is the outcome of one simulated execution.
type Result struct {
	// Completed reports on-time completion (the paper's P numerator).
	Completed bool
	// Reason explains a failure; empty on completion.
	Reason FailReason
	// Time is the wall-clock time at completion or failure.
	Time float64
	// Energy is the V²·cycles total across both replicas (the paper's E).
	Energy float64
	// Cycles is the total clock cycles burned across both replicas.
	Cycles float64
	// Faults is the number of transient faults injected.
	Faults int
	// Detections is the number of error detections (= rollbacks).
	Detections int
	// CSCPs and SubCheckpoints count checkpoint operations taken.
	CSCPs, SubCheckpoints int
	// Switches is the number of processor speed changes.
	Switches int

	// The remaining fields are produced only under an imperfect
	// fault-tolerance model (Params.Imperfect); they are zero in the
	// paper's ideal setting.

	// SilentCorruption reports that the run completed with replica
	// divergence still undetected: the output is wrong even though the
	// deadline was met. Counted separately from P (which keeps the
	// paper's timely-completion meaning).
	SilentCorruption bool
	// MissedDetections counts comparisons that failed to flag present
	// divergence (coverage misses).
	MissedDetections int
	// CorruptRestores counts restore attempts that found the stored
	// checkpoint unusable, forcing the rollback cascade one store older.
	CorruptRestores int
	// Restarts counts recoveries that exhausted every usable stored
	// state (or the cascade budget) and restarted the task from the
	// beginning.
	Restarts int
}

// Scheme is a checkpointing algorithm under test.
type Scheme interface {
	// Name returns the scheme's report label (e.g. "A_D_S").
	Name() string
	// Run simulates one task execution, drawing randomness from src.
	Run(p Params, src *rng.Source) Result
}

// Engine holds the mutable state of one simulated execution. Schemes
// (package core) drive it through NewEngine, SetSpeed, RunInterval and
// Finish. An Engine is reusable: Reset re-initialises it for the next
// execution while keeping its meter, fault-process and store buffers,
// which is how a RunContext amortises per-repetition allocations.
type Engine struct {
	p   Params
	src *rng.Source

	t    float64 // wall clock
	x    float64 // useful-execution clock (fault process runs on this)
	next float64 // next fault arrival on the x clock (+Inf if no faults)
	proc fault.Process
	// pp is proc's concrete value when it is the plain Poisson process —
	// the overwhelmingly common case — letting the per-fault draw in
	// ExecSpan be a direct call instead of an interface dispatch.
	pp *fault.PoissonProcess

	cur   cpu.OperatingPoint
	meter *cpu.Meter

	// Wall-clock checkpoint/rollback durations at the current operating
	// point, refreshed on every speed change so the per-checkpoint hot
	// path does not re-divide cycle costs by the frequency. wall is
	// indexed by checkpoint.Kind (SCP, CCP, CSCP) so wallCost stays a
	// bounds-checked load the compiler can inline.
	wall         [3]float64
	wallRollback float64

	faults     int
	detections int
	cscps      int
	subs       int

	corruptRestores int
	restarts        int

	// Fault-tolerance state (imperfect.go, store.go). led holds the
	// imperfect model's state and the one set of stored images:
	// Params.Store when given, the paper's free store on a storeless
	// imperfect run, and inactive (untouched) on the ideal storeless
	// path. It counts into Params.StoreStats when the run has a Store,
	// otherwise into its own scratch.
	led FTLedger
}

// NewEngine prepares a fresh execution: clocks at zero, the processor at
// its slowest operating point, and the first fault arrival drawn.
func NewEngine(p Params, src *rng.Source) *Engine {
	e := &Engine{}
	e.Reset(p, src)
	return e
}

// Reset re-initialises the engine for a fresh execution, exactly as if it
// had been built by NewEngine(p, src), but reusing the buffers of the
// previous run: the energy meter, the checkpoint set's backing array
// and — when the fault rate matches — the Poisson fault process.
// The trajectory produced after a Reset is bit-for-bit identical to a
// fresh engine's (the golden-equivalence suite pins this).
func (e *Engine) Reset(p Params, src *rng.Source) {
	e.p = p
	e.src = src
	e.t, e.x = 0, 0
	e.cur = p.CPUModel().Min()
	e.refreshSpeedCosts()
	if e.meter == nil {
		e.meter = cpu.NewMeter(p.ReplicaCount())
	} else {
		e.meter.ResetFor(p.ReplicaCount())
	}
	e.faults, e.detections, e.cscps, e.subs = 0, 0, 0, 0
	e.corruptRestores, e.restarts = 0, 0
	e.led.Reset(&p, src)

	switch {
	case p.FaultProcess != nil:
		e.proc = p.FaultProcess(src)
	case p.Lambda > 0:
		// Reuse the previous run's process when it is the plain Poisson
		// one at the same rate: Reset rewinds it onto the new stream.
		if pp, ok := e.proc.(*fault.PoissonProcess); ok && pp.Lambda == p.Lambda {
			pp.Reset(src)
		} else {
			e.proc = fault.NewPoisson(p.Lambda, src)
		}
	default:
		e.proc = nil
	}
	e.pp, _ = e.proc.(*fault.PoissonProcess)
	if e.proc != nil {
		e.next = e.proc.Next()
	} else {
		e.next = math.Inf(1)
	}
}

// refreshSpeedCosts recomputes the cached wall-clock overhead durations
// for the current operating point. The expressions match the ones the
// pre-cache engine evaluated per operation, so the cached values are
// bit-identical.
func (e *Engine) refreshSpeedCosts() {
	f := e.cur.Freq
	e.wall[checkpoint.SCP] = e.p.Costs.AtSpeed(checkpoint.SCP, f)
	e.wall[checkpoint.CCP] = e.p.Costs.AtSpeed(checkpoint.CCP, f)
	e.wall[checkpoint.CSCP] = e.p.Costs.AtSpeed(checkpoint.CSCP, f)
	e.wallRollback = e.p.Costs.Rollback / f
}

// wallCost returns the wall-clock duration of one checkpoint of kind k at
// the current speed, from the per-speed cache.
func (e *Engine) wallCost(k checkpoint.Kind) float64 {
	if uint(k) < uint(len(e.wall)) {
		return e.wall[k]
	}
	return e.wallCostUnknown(k)
}

//go:noinline
func (e *Engine) wallCostUnknown(k checkpoint.Kind) float64 {
	return e.p.Costs.AtSpeed(k, e.cur.Freq) // unknown kind: panics there
}

// SetSpeed switches the processor operating point.
func (e *Engine) SetSpeed(pt cpu.OperatingPoint) {
	if pt == e.cur {
		return
	}
	if e.p.Trace != nil {
		e.p.Trace.add(Event{Kind: EvSpeed, Time: e.t, Value: pt.Freq})
	}
	e.cur = pt
	e.refreshSpeedCosts()
}

// execSpan executes useful work for wall duration d at the current speed.
// It returns the offset (on the span, in wall time) of the first fault
// striking during the span, or -1 if the span is fault-free. All faults
// inside the span are consumed (counted) even when several arrive.
func (e *Engine) execSpan(d float64) float64 {
	off, _ := e.ExecSpan(d)
	return off
}

// ExecSpan executes useful work for wall duration d at the current
// speed, returning the offset of the first fault within the span (or -1)
// and the total number of faults that struck during it.
func (e *Engine) ExecSpan(d float64) (float64, int) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative span %v", d))
	}
	start, end := e.x, e.x+d
	first := -1.0
	n := 0
	for e.next < end {
		n++
		off := e.next - start
		if first < 0 {
			first = off
		}
		if e.p.Trace != nil {
			e.p.Trace.add(Event{Kind: EvFault, Time: e.t + off})
		}
		e.faults++
		if e.pp != nil {
			e.next = e.pp.Next()
		} else {
			e.next = e.proc.Next()
		}
	}
	e.meter.Segment(e.cur, d)
	e.t += d
	e.x = end
	return first, n
}

// Spend charges non-execution overhead (checkpoint or rollback work):
// wall time and energy advance, the useful-execution clock (and thus the
// fault process) does not.
func (e *Engine) Spend(d float64) {
	e.meter.Segment(e.cur, d)
	e.t += d
}

// CheckpointOp charges one checkpoint of the given kind at the current
// speed and records it.
func (e *Engine) CheckpointOp(k checkpoint.Kind) {
	e.Spend(e.wallCost(k))
	switch k {
	case checkpoint.CSCP:
		e.cscps++
	default:
		e.subs++
	}
	if e.p.Trace != nil {
		e.p.Trace.add(Event{Kind: EvCheckpoint, Time: e.t, Checkpoint: k})
	}
}

// Rollback charges the rollback cost, counts a detection and records the
// event. toWork is the task progress (cycles) restored to.
func (e *Engine) Rollback(toWork float64) {
	e.Spend(e.wallRollback)
	e.detections++
	if e.p.Trace != nil {
		e.p.Trace.add(Event{Kind: EvRollback, Time: e.t, Value: toWork})
	}
}

// RunInterval executes one CSCP interval of wall length itv at the
// current speed, subdivided into m equal sub-intervals with
// sub-checkpoints of flavour sub between them (m = 1 means CSCP-only).
// doneWork is the task progress (cycles) at the interval start, used only
// for trace annotations.
//
// It returns the work retained (in cycles) and whether an error was
// detected. SCP flavour: detection is deferred to the closing CSCP and
// rollback returns to the newest consistent store, so a prefix of the
// interval's work survives. CCP flavour: detection happens at the next
// comparison but rollback returns to the interval-leading CSCP, so no
// work survives a fault.
func (e *Engine) RunInterval(itv float64, m int, sub checkpoint.Kind, doneWork float64) (kept float64, detected bool) {
	if itv <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", itv))
	}
	if m < 1 {
		panic(fmt.Sprintf("sim: non-positive sub-interval count %d", m))
	}
	if sub != checkpoint.SCP && sub != checkpoint.CCP {
		panic(fmt.Sprintf("sim: sub-checkpoint flavour must be SCP or CCP, got %v", sub))
	}
	if e.led.Imperfect() {
		return e.runIntervalImperfect(itv, m, sub, doneWork)
	}
	if e.led.active() {
		return e.runIntervalStore(itv, m, sub, doneWork)
	}
	f := e.cur.Freq
	if m == 1 {
		// Single-span interval (span == itv exactly): both flavours
		// reduce to one execution span and the closing CSCP, rolling
		// back to the interval-leading state on a fault. This is the
		// common case — every fixed-interval scheme and every adaptive
		// interval without sub-checkpoints — so it skips the loop
		// machinery below; the returned values are bit-identical to the
		// general path at m = 1 (kept = 0·span·f = +0 on a fault).
		off := e.execSpan(itv)
		e.CheckpointOp(checkpoint.CSCP)
		if off < 0 {
			return itv * f, false
		}
		e.Rollback(doneWork)
		return 0, true
	}
	span := itv / float64(m)

	switch sub {
	case checkpoint.SCP:
		firstOffset := -1.0 // offset of earliest fault from interval start, wall
		for j := 0; j < m; j++ {
			off := e.execSpan(span)
			if off >= 0 && firstOffset < 0 {
				firstOffset = float64(j)*span + off
			}
			if j < m-1 {
				e.CheckpointOp(checkpoint.SCP)
			}
		}
		e.CheckpointOp(checkpoint.CSCP)
		if firstOffset < 0 {
			return itv * f, false
		}
		// Detection at the CSCP: roll back to the newest store at or
		// before the earliest fault (stores after it hold diverged
		// state).
		goodBoundary := math.Floor(firstOffset / span)
		kept = goodBoundary * span * f
		e.Rollback(doneWork + kept)
		return kept, true

	case checkpoint.CCP:
		for j := 0; j < m; j++ {
			off := e.execSpan(span)
			boundary := checkpoint.CCP
			if j == m-1 {
				boundary = checkpoint.CSCP
			}
			e.CheckpointOp(boundary)
			if off >= 0 {
				// Detected at this comparison; the only stored state is
				// the interval-leading CSCP.
				e.Rollback(doneWork)
				return 0, true
			}
		}
		return itv * f, false

	default:
		panic(fmt.Sprintf("sim: sub-checkpoint flavour must be SCP or CCP, got %v", sub))
	}
}

// Now returns the current wall-clock time.
func (e *Engine) Now() float64 { return e.t }

// ExecClock returns the accumulated useful-execution time — the clock
// the fault process runs on. Schemes that estimate the fault rate online
// divide observed detections by this exposure.
func (e *Engine) ExecClock() float64 { return e.x }

// Speed returns the current operating point.
func (e *Engine) Speed() cpu.OperatingPoint { return e.cur }

// Finish assembles the Result for a finished or failed run.
func (e *Engine) Finish(completed bool, reason FailReason) Result {
	if e.p.Trace != nil {
		k := EvFail
		if completed {
			k = EvComplete
		}
		e.p.Trace.add(Event{Kind: k, Time: e.t})
	}
	return Result{
		Completed:      completed,
		Reason:         reason,
		Time:           e.t,
		Energy:         e.meter.Energy(),
		Cycles:         e.meter.Cycles(),
		Faults:         e.faults,
		Detections:     e.detections,
		CSCPs:          e.cscps,
		SubCheckpoints: e.subs,
		Switches:       e.meter.Switches(),

		SilentCorruption: e.led.Wrong(completed),
		MissedDetections: e.led.missed,
		CorruptRestores:  e.corruptRestores,
		Restarts:         e.restarts,
	}
}
