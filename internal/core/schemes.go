// Package core implements the paper's primary contribution: the adaptive
// checkpointing schemes with additional store- and compare-checkpoints
// combined with dynamic voltage scaling (adapchp_dvs_SCP and
// adapchp_dvs_CCP, paper Figs. 6–7), their fixed-speed variants (Fig. 3),
// the DATE'03 comparator ADT_DVS, and the static Poisson-arrival and
// k-fault-tolerant baselines. Each scheme drives the Monte-Carlo engine
// of internal/sim.
package core

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/sim"
)

// FixedCSCP is a static-interval, fixed-speed comparator scheme: CSCPs at
// a constant interval, no DVS, no additional checkpoints. The paper's
// "Poisson" and "k-f-t" baselines are both instances.
type FixedCSCP struct {
	name string
	// Freq is the single operating frequency the scheme runs at.
	Freq float64
	// interval returns the constant wall-clock CSCP interval for the run.
	interval func(p sim.Params, f float64) float64
}

// NewPoissonScheme returns the Poisson-arrival comparator at the given
// fixed frequency: constant interval sqrt(2C/λ) with C = c/f.
func NewPoissonScheme(freq float64) *FixedCSCP {
	return &FixedCSCP{
		name: fmt.Sprintf("Poisson(f=%g)", freq),
		Freq: freq,
		interval: func(p sim.Params, f float64) float64 {
			if p.Lambda == 0 {
				return p.Task.Cycles / f // one interval: no faults expected
			}
			return policy.I1(p.Costs.CSCPCycles()/f, p.Lambda)
		},
	}
}

// NewKFTScheme returns the k-fault-tolerant comparator at the given fixed
// frequency: constant interval sqrt(N·C/k) in wall time at speed f.
func NewKFTScheme(freq float64) *FixedCSCP {
	return &FixedCSCP{
		name: fmt.Sprintf("k-f-t(f=%g)", freq),
		Freq: freq,
		interval: func(p sim.Params, f float64) float64 {
			k := p.Task.FaultBudget
			if k < 1 {
				k = 1
			}
			return policy.I2(p.Task.Cycles/f, float64(k), p.Costs.CSCPCycles()/f)
		},
	}
}

// Both scheme families support the reusable run-context path.
var (
	_ sim.ContextScheme = (*FixedCSCP)(nil)
	_ sim.ContextScheme = (*Adaptive)(nil)
)

// Name implements Scheme.
func (s *FixedCSCP) Name() string { return s.name }

// Run implements Scheme.
func (s *FixedCSCP) Run(p sim.Params, src *rng.Source) sim.Result {
	return s.run(sim.NewEngine(p, src), p)
}

// RunCtx implements sim.ContextScheme: like Run, but reusing the
// context's engine buffers.
func (s *FixedCSCP) RunCtx(rc *sim.RunContext, p sim.Params, src *rng.Source) sim.Result {
	return s.run(rc.Engine(p, src), p)
}

func (s *FixedCSCP) run(e *sim.Engine, p sim.Params) sim.Result {
	pt, err := p.CPUModel().AtFreq(s.Freq)
	if err != nil {
		return e.Finish(false, sim.FailBadConfig)
	}
	e.SetSpeed(pt)
	itv := s.interval(p, pt.Freq)
	rc := p.Task.Cycles
	budget := p.MaxIntervalBudget()
	for i := 0; i < budget; i++ {
		rd := p.Task.Deadline - e.Now()
		if rc/pt.Freq > rd {
			return e.Finish(false, sim.FailInfeasible)
		}
		cur := minPos(itv, rc/pt.Freq)
		kept, _ := e.RunInterval(cur, 1, checkpoint.SCP, p.Task.Cycles-rc)
		rc -= kept
		if rc <= sim.EpsWork {
			if e.Now() <= p.Task.Deadline {
				return e.Finish(true, sim.FailNone)
			}
			return e.Finish(false, sim.FailDeadline)
		}
	}
	return e.Finish(false, sim.FailGuard)
}

// Adaptive is the unified adaptive checkpointing scheme of the paper:
// CSCP intervals chosen by the DATE'03 interval() procedure, optionally
// subdivided by additional SCPs or CCPs (num_SCP/num_CCP of Fig. 2),
// optionally combined with two-speed DVS (Figs. 6 and 7).
type Adaptive struct {
	name string
	// Sub is the flavour of the additional checkpoints (SCP or CCP).
	Sub checkpoint.Kind
	// UseSub enables the additional checkpoints; false gives the
	// CSCP-only DATE'03 scheme (the paper's A_D comparator).
	UseSub bool
	// DVS enables the two-speed voltage scaling decision; false runs at
	// FixedFreq throughout (the Fig. 3 scheme).
	DVS bool
	// FixedFreq is the operating frequency when DVS is off.
	FixedFreq float64
	// EstimateLambdaPrior, when positive, makes the scheme estimate the
	// fault rate online instead of trusting Params.Lambda: the planning
	// rate is the posterior mean of a Gamma(1, 1/prior) model updated
	// with observed detections over useful-execution exposure,
	// λ̂ = (1 + detections)/(1/prior + exposure). This realises the
	// paper's "tune the scheme to the specific system which it is
	// implemented on" without a priori knowledge of λ. Zero trusts
	// Params.Lambda (the paper's evaluation setting).
	EstimateLambdaPrior float64
	// EagerSpeedReeval re-evaluates the DVS decision bidirectionally
	// before every interval (an idealised governor). The default
	// (false) follows the paper: the speed is picked at the start
	// (Fig. 6 line 2) and re-examined only at fault recoveries (line
	// 15), and recovery may only lower the speed, never raise it. Both
	// the literal-reading energy figures (fault-free runs stay fast:
	// E ≈ 74k at U=0.92, k=1) and the sub-unit completion probabilities
	// at k=1 (a fault after a marginal downshift cannot be rescued by
	// upshifting, so P ≈ 1 − P(second fault breaches the slack))
	// require exactly this one-directional behaviour. The eager variant
	// is the ablation knob behind BenchmarkAblationDVS.
	EagerSpeedReeval bool
}

// NewADTDVS returns the DATE'03 comparator A_D: adaptive intervals,
// CSCPs only, two-speed DVS.
func NewADTDVS() *Adaptive {
	return &Adaptive{name: "A_D", Sub: checkpoint.CCP, UseSub: false, DVS: true}
}

// NewAdaptDVSSCP returns the paper's adapchp_dvs_SCP (A_D_S, Fig. 6).
func NewAdaptDVSSCP() *Adaptive {
	return &Adaptive{name: "A_D_S", Sub: checkpoint.SCP, UseSub: true, DVS: true}
}

// NewAdaptDVSCCP returns the paper's adapchp_dvs_CCP (A_D_C, Fig. 7).
func NewAdaptDVSCCP() *Adaptive {
	return &Adaptive{name: "A_D_C", Sub: checkpoint.CCP, UseSub: true, DVS: true}
}

// NewAdaptSCP returns the fixed-speed adaptive SCP scheme of Fig. 3
// (adapchp-SCP), running at the given frequency.
func NewAdaptSCP(freq float64) *Adaptive {
	return &Adaptive{
		name: fmt.Sprintf("adapchp-SCP(f=%g)", freq),
		Sub:  checkpoint.SCP, UseSub: true, FixedFreq: freq,
	}
}

// NewAdaptCCP returns the fixed-speed adaptive CCP scheme (the CCP
// analogue of Fig. 3), running at the given frequency.
func NewAdaptCCP(freq float64) *Adaptive {
	return &Adaptive{
		name: fmt.Sprintf("adapchp-CCP(f=%g)", freq),
		Sub:  checkpoint.CCP, UseSub: true, FixedFreq: freq,
	}
}

// Name implements Scheme.
func (s *Adaptive) Name() string { return s.name }

// WithOnlineLambda returns a copy of the scheme that estimates the
// fault rate online from the given prior instead of trusting
// Params.Lambda (see EstimateLambdaPrior).
func (s *Adaptive) WithOnlineLambda(prior float64) *Adaptive {
	c := *s
	c.EstimateLambdaPrior = prior
	c.name = s.name + "+est"
	return &c
}

// WithEagerDVS returns a copy of the scheme whose DVS decision (and
// interval plan) is re-evaluated bidirectionally before every interval
// instead of only at fault recoveries — the idealised-governor ablation.
func (s *Adaptive) WithEagerDVS() *Adaptive {
	c := *s
	c.EagerSpeedReeval = true
	c.name = s.name + "+eager"
	return &c
}

// pickSpeed returns the slowest operating point whose fault-aware time
// estimate t_est fits the remaining deadline, or the fastest point if
// none does (paper §3: "voltage scaling is feasible if t_est ≤ Rd").
// c is the CSCP cost in minimum-speed cycles.
func (s *Adaptive) pickSpeed(model *cpu.Model, c, lambda, rc, rd float64) cpu.OperatingPoint {
	for _, pt := range model.Points() {
		if analysis.TEst(rc, pt.Freq, c, lambda) <= rd {
			return pt
		}
	}
	return model.Max()
}

// Run implements Scheme.
//
// Following Figs. 6/7 faithfully, the speed decision, the CSCP interval
// and the sub-interval count are taken at the start of execution (lines
// 2–4) and re-taken after every fault recovery (lines 15–17) — *not* at
// every checkpoint. Re-planning each interval would shrink the
// k-fault-tolerant interval sqrt(Rt·C/k) as Rt falls and double the
// fault-free overhead (the ∫dRt/sqrt(Rt) effect), which contradicts the
// fault-free completion probabilities the paper reports.
func (s *Adaptive) Run(p sim.Params, src *rng.Source) sim.Result {
	return s.run(sim.NewEngine(p, src), s.plannerFor(nil, p), p)
}

// RunCtx implements sim.ContextScheme: like Run, but reusing the
// context's engine buffers and its Planner (pooled per-(f, λ) planning
// constants included) across repetitions of the same cell.
func (s *Adaptive) RunCtx(rc *sim.RunContext, p sim.Params, src *rng.Source) sim.Result {
	return s.run(rc.Engine(p, src), s.plannerFor(rc, p), p)
}

// run is the shared scheme body: a thin loop over the Planner and the
// Engine. All planning logic lives in Planner.planIdx.
func (s *Adaptive) run(e *sim.Engine, pl *Planner, p sim.Params) sim.Result {
	rc := p.Task.Cycles
	rf := p.Task.FaultBudget

	// Planning fault rate: the given λ, or the online posterior mean
	// when estimation is enabled. The prior's pseudo-exposure 1/prior is
	// capped at one deadline: a belief weaker than "one fault per
	// deadline window" should not outweigh a full window of observation.
	detections := 0
	estimate := s.EstimateLambdaPrior > 0
	var pseudo float64
	if estimate {
		pseudo = math.Min(1/s.EstimateLambdaPrior, p.Task.Deadline)
	}

	// replan re-takes the speed decision (DVS only) and recomputes the
	// CSCP interval and sub-interval length from the current state.
	// It reports false on an unsatisfiable fixed-speed configuration.
	var itv, subLen float64
	replan := func() bool {
		lam := p.Lambda
		if estimate {
			lam = (1 + float64(detections)) / (pseudo + e.ExecClock())
		}
		pln := pl.Plan(rc, p.Task.Deadline-e.Now(), lam, rf)
		if pln.BadConfig {
			return false
		}
		e.SetSpeed(pln.Point)
		itv, subLen = pln.Interval, pln.SubLen
		return true
	}
	if !replan() {
		return e.Finish(false, sim.FailBadConfig)
	}

	budget := p.MaxIntervalBudget()
	for i := 0; i < budget; i++ {
		f := e.Speed().Freq
		rd := p.Task.Deadline - e.Now()
		if s.DVS && s.EagerSpeedReeval {
			replan()
			f = e.Speed().Freq
		}
		if rc/f > rd {
			return e.Finish(false, sim.FailInfeasible)
		}

		// The tail interval is clamped to the remaining work; its
		// sub-interval count keeps the planned sub-interval length.
		cur := minPos(itv, rc/f)
		m := 1
		if s.UseSub && subLen > 0 {
			m = int(math.Ceil(cur/subLen - 1e-9))
			if m < 1 {
				m = 1
			}
		}

		kept, detected := e.RunInterval(cur, m, s.Sub, p.Task.Cycles-rc)
		rc -= kept
		if detected {
			detections++
			if rf > 0 {
				rf--
			}
			replan() // Fig. 6 lines 15–17
		}
		if rc <= sim.EpsWork {
			if e.Now() <= p.Task.Deadline {
				return e.Finish(true, sim.FailNone)
			}
			return e.Finish(false, sim.FailDeadline)
		}
	}
	return e.Finish(false, sim.FailGuard)
}

// minPos is math.Min for operands known to be positive and finite (the
// interval clamp in the hot run loops): identical value and bits for
// such inputs, but inlinable — math.Min's ±0/NaN handling is an assembly
// intrinsic call on amd64, visible in profiles at this call frequency.
func minPos(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
