package core

import (
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/task"
)

// foldRange maps an arbitrary float64 into [lo, hi), absorbing NaN and
// infinities, so the fuzzer explores the planner's whole input envelope
// without wasting executions on rejected inputs.
func foldRange(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	return lo + math.Mod(math.Abs(x), hi-lo)
}

// FuzzPlannerChoose drives Planner.Plan across the planning state space
// (remaining work, remaining deadline, fault rate, fault budget) and
// the scheme configuration space (sub-checkpoint kind, DVS on/off,
// fixed frequencies — including ones the CPU model lacks), checking the
// planner's contract rather than specific values:
//
//   - it never panics and never hangs, including on degenerate states
//     (rc ≤ 0, rd ≤ 0, λ = 0, zero-cost sub-checkpoints);
//   - every plan has a positive interval and a positive sub-interval no
//     longer than the interval, unless the configuration is reported
//     BadConfig;
//   - planning is a pure function of its inputs: a fresh planner and a
//     context planner whose pooled state (TEst factor table, interval
//     environments, NumSub memos and the one-entry memos in front of
//     them) holds earlier inputs' values return bit-identical plans.
func FuzzPlannerChoose(f *testing.F) {
	f.Add(7800.0, 10000.0, 0.0014, 5, uint8(0b011))
	f.Add(7800.0, 10000.0, 0.0, 5, uint8(0b111))
	f.Add(1e9, 1.0, 0.5, 0, uint8(0b001))
	f.Add(-3.0, -4.0, 0.1, 2, uint8(0b010))
	f.Add(1e-6, 1e9, 1e-9, 100, uint8(0b101))
	// One context across inputs (a fuzz worker runs them sequentially):
	// inputs with the same configuration share its planner, whose pools
	// and memos then hold earlier inputs' (f, λ, interval) state, so
	// every input also checks that none of it leaks into the plan.
	rctx := sim.NewRunContext()
	f.Fuzz(func(t *testing.T, rc, rd, lam float64, rf int, cfgBits uint8) {
		// Fold the raw inputs into the envelope the engine can produce:
		// finite work/deadline (including the ≤0 degenerate corner the
		// planner documents), λ in [0, 0.5], a small fault budget.
		rc = foldRange(rc, -10, 1e9)
		rd = foldRange(rd, -10, 1e9)
		lam = foldRange(lam, 0, 0.5)
		rf = rf % 128 // policy.Interval clamps negatives itself

		cfg := Adaptive{
			Sub:    checkpoint.SCP,
			UseSub: cfgBits&1 != 0,
			DVS:    cfgBits&2 != 0,
		}
		if cfgBits&4 != 0 {
			cfg.Sub = checkpoint.CCP
		}
		costs := checkpoint.SCPSetting()
		switch (cfgBits >> 3) & 3 {
		case 1:
			costs = checkpoint.CCPSetting()
		case 2:
			// Zero sub-checkpoint cost is valid per Costs.Validate and
			// makes the renewal curve monotone — the NumSub walk must
			// stay bounded.
			costs = checkpoint.Costs{Store: 0, Compare: 5, Rollback: 1}
		}
		if !cfg.DVS {
			model := cpu.TwoSpeed()
			switch (cfgBits >> 5) & 3 {
			case 0:
				cfg.FixedFreq = model.Max().Freq
			case 1:
				cfg.FixedFreq = model.Min().Freq
			default:
				cfg.FixedFreq = 0.123 // not an operating point: BadConfig path
			}
		}
		tk := task.Task{Name: "fuzz", Cycles: 7800, Deadline: 10000, FaultBudget: 5}

		pl := cfg.plannerFor(rctx, sim.Params{Task: tk, Costs: costs})
		plan := pl.Plan(rc, rd, lam, rf)
		if plan.BadConfig {
			if cfg.DVS {
				t.Fatalf("DVS planner reported BadConfig for rc=%v rd=%v lam=%v rf=%d", rc, rd, lam, rf)
			}
			return
		}
		if !(plan.Interval > 0) || math.IsInf(plan.Interval, 0) {
			t.Fatalf("non-positive or infinite interval %v (rc=%v rd=%v lam=%v rf=%d cfg=%+v)",
				plan.Interval, rc, rd, lam, rf, cfg)
		}
		if !(plan.SubLen > 0) || plan.SubLen > plan.Interval {
			t.Fatalf("sub-interval %v outside (0, %v] (rc=%v rd=%v lam=%v rf=%d cfg=%+v)",
				plan.SubLen, plan.Interval, rc, rd, lam, rf, cfg)
		}
		if plan.Point.Freq <= 0 {
			t.Fatalf("non-positive planned frequency %v", plan.Point.Freq)
		}

		// Purity: the warm context planner (planning the state again,
		// now with its one-entry memos holding this very input) and a
		// fresh planner agree bit-for-bit.
		if again := pl.Plan(rc, rd, lam, rf); again != plan {
			t.Fatalf("warm replan diverged: %+v vs %+v", again, plan)
		}
		cold := NewPlanner(cfg, cpu.TwoSpeed(), costs, tk)
		if fresh := cold.Plan(rc, rd, lam, rf); fresh != plan {
			t.Fatalf("fresh planner diverged from the context planner: %+v vs %+v", fresh, plan)
		}
	})
}
