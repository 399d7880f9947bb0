package repro

// Benchmark harness regenerating the paper's evaluation artefacts.
//
// One benchmark per published sub-table (BenchmarkTable1a … 4b) runs the
// full grid at a reduced repetition count and reports the paper scheme's
// representative-cell P and E as custom metrics, so `go test -bench .`
// both times the simulator and reprints the result shapes; cmd/tables
// produces the full-precision rows. BenchmarkCurveR1/R2 regenerate the
// analytic series behind Fig. 2, and the Ablation* benchmarks quantify
// the design choices called out in DESIGN.md §6.

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/telemetry"
)

const benchReps = 50

// benchTable runs one full sub-table grid per iteration and reports the
// paper-scheme P and E of the first grid row as metrics.
func benchTable(b *testing.B, id string) {
	b.Helper()
	spec, err := experiment.TableByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// Workers: 0 follows GOMAXPROCS, so `go test -bench Table1a -cpu 1,2,4`
	// sweeps the work-stealing scheduler's scaling; results are
	// bit-identical at every width.
	runner := experiment.Runner{Reps: benchReps, Seed: 1}
	var last experiment.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := runner.RunTable(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = tbl
	}
	b.StopTimer()
	paperCol := last.Rows[0].Cells[len(last.Rows[0].Cells)-1]
	b.ReportMetric(paperCol.P, "P")
	b.ReportMetric(paperCol.E, "E")
}

func BenchmarkTable1a(b *testing.B) { benchTable(b, "1a") }
func BenchmarkTable1b(b *testing.B) { benchTable(b, "1b") }
func BenchmarkTable2a(b *testing.B) { benchTable(b, "2a") }
func BenchmarkTable2b(b *testing.B) { benchTable(b, "2b") }
func BenchmarkTable3a(b *testing.B) { benchTable(b, "3a") }
func BenchmarkTable3b(b *testing.B) { benchTable(b, "3b") }
func BenchmarkTable4a(b *testing.B) { benchTable(b, "4a") }
func BenchmarkTable4b(b *testing.B) { benchTable(b, "4b") }

// BenchmarkTable1aSinkOverhead quantifies the telemetry tax on the
// Table 1a grid: "none" is the
// uninstrumented baseline, "nop" attaches a do-nothing sink (the
// nil-guard plus per-cell reporting path — budgeted at ≤2% over
// "none"), and "registry" attaches the live registry+tracer sink simd
// runs with. Instrumentation is consulted per grid cell and per shard
// unit, never per repetition, which is why the budget holds: the
// bookkeeping cost is amortised over a whole shard of simulated
// trajectories.
func BenchmarkTable1aSinkOverhead(b *testing.B) {
	spec, err := experiment.TableByID("1a")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, sink telemetry.Sink) {
		runner := experiment.Runner{Reps: benchReps, Seed: 1, Sink: sink}
		for i := 0; i < b.N; i++ {
			if _, err := runner.RunTable(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("none", func(b *testing.B) { run(b, nil) })
	b.Run("nop", func(b *testing.B) { run(b, telemetry.Nop) })
	b.Run("registry", func(b *testing.B) {
		run(b, telemetry.NewRegistrySink(telemetry.NewRegistry(), telemetry.NewTracer(1<<14)))
	})
}

// BenchmarkSingleCellParallel runs ONE 10k-rep grid cell through the
// rep-sharded scheduler at the ambient GOMAXPROCS (`-cpu 1,2,4` sweeps
// it). Before rep-level sharding a single cell was a serial unit and
// could not scale at all; now its shards spread across every worker, so
// reps/sec for this benchmark should track the core count.
func BenchmarkSingleCellParallel(b *testing.B) {
	spec, err := experiment.TableByID("1a")
	if err != nil {
		b.Fatal(err)
	}
	schemes := spec.Schemes()
	scheme := schemes[len(schemes)-1]
	const reps = 10_000
	runner := experiment.Runner{Reps: reps, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunCell(spec, scheme, spec.Us[0], spec.Lambdas[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	secPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) * 1e-9
	b.ReportMetric(float64(reps)/secPerOp, "reps/sec")
}

// BenchmarkSingleRun times one execution of the headline scheme at the
// paper's anchor cell — the simulator's inner-loop cost.
func BenchmarkSingleRun(b *testing.B) {
	tk, _ := task.FromUtilization("bench", 0.78, 1, 10000, 5)
	p := sim.Params{Task: tk, Costs: checkpoint.SCPSetting(), Lambda: 0.0014}
	s := core.NewAdaptDVSSCP()
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Run(p, src.Split())
	}
}

// BenchmarkSingleRunCtx is BenchmarkSingleRun through a reused
// RunContext — the warm path the experiment runner's workers take. The
// delta against BenchmarkSingleRun is the price of fresh per-run
// allocation the run-context architecture avoids.
func BenchmarkSingleRunCtx(b *testing.B) {
	tk, _ := task.FromUtilization("bench", 0.78, 1, 10000, 5)
	p := sim.Params{Task: tk, Costs: checkpoint.SCPSetting(), Lambda: 0.0014}
	s := core.NewAdaptDVSSCP()
	rctx := sim.NewRunContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.RunScheme(rctx, s, p, rctx.Reseed(uint64(i)+1))
	}
}

// --- Fig. 2 analytic curves ---

func BenchmarkCurveR1(b *testing.B) {
	p := analysis.Params{Costs: checkpoint.SCPSetting(), Lambda: 0.0014}
	var pts []analysis.CurvePoint
	for i := 0; i < b.N; i++ {
		pts = analysis.Curve(p, checkpoint.SCP, 1000, 40)
	}
	b.StopTimer()
	best := pts[0]
	for _, pt := range pts {
		if pt.R < best.R {
			best = pt
		}
	}
	b.ReportMetric(float64(best.M), "argmin_m")
}

func BenchmarkCurveR2(b *testing.B) {
	p := analysis.Params{Costs: checkpoint.CCPSetting(), Lambda: 0.0014}
	var pts []analysis.CurvePoint
	for i := 0; i < b.N; i++ {
		pts = analysis.Curve(p, checkpoint.CCP, 1000, 40)
	}
	b.StopTimer()
	best := pts[0]
	for _, pt := range pts {
		if pt.R < best.R {
			best = pt
		}
	}
	b.ReportMetric(float64(best.M), "argmin_m")
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationNumSCP compares the three ways of picking m: the
// closed-form fast path the simulator uses, the literal Fig. 2
// golden-section procedure, and the brute-force oracle.
func BenchmarkAblationNumSCP(b *testing.B) {
	p := analysis.Params{Costs: checkpoint.SCPSetting(), Lambda: 0.0014}
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = analysis.NumSCP(p, 1000)
		}
	})
	b.Run("golden-section", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = analysis.NumSubGolden(p, checkpoint.SCP, 1000)
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = analysis.BruteForceNumSub(p, checkpoint.SCP, 1000, 100)
		}
	})
}

// ablationCell Monte-Carlos one scheme at the anchor cell and reports
// P/E metrics alongside the timing.
func ablationCell(b *testing.B, s sim.Scheme, costs checkpoint.Costs, u, lambda float64, k int) {
	b.Helper()
	tk, _ := task.FromUtilization("abl", u, 1, 10000, k)
	p := sim.Params{Task: tk, Costs: costs, Lambda: lambda}
	var sum stats.Summary
	for i := 0; i < b.N; i++ {
		src := rng.New(uint64(i))
		var cell stats.Cell
		for r := 0; r < benchReps; r++ {
			res := s.Run(p, src.Split())
			cell.Observe(res.Completed, res.Energy, res.Time, float64(res.Faults), float64(res.Switches))
		}
		sum = cell.Summary()
	}
	b.ReportMetric(sum.P, "P")
	b.ReportMetric(sum.E, "E")
}

// BenchmarkAblationDVS contrasts the paper's fault-triggered DVS
// re-evaluation with an idealised every-interval governor: the eager
// variant downshifts sooner (lower E) at some completion-probability
// cost near the feasibility edge.
func BenchmarkAblationDVS(b *testing.B) {
	b.Run("paper-replan-on-fault", func(b *testing.B) {
		ablationCell(b, core.NewAdaptDVSSCP(), checkpoint.SCPSetting(), 0.78, 0.0014, 5)
	})
	b.Run("eager-every-interval", func(b *testing.B) {
		ablationCell(b, core.NewAdaptDVSSCP().WithEagerDVS(), checkpoint.SCPSetting(), 0.78, 0.0014, 5)
	})
}

// BenchmarkAblationSubCheckpoints isolates the paper's contribution: the
// same adaptive DVS loop with and without the additional intra-interval
// checkpoints.
func BenchmarkAblationSubCheckpoints(b *testing.B) {
	b.Run("cscp-only-A_D", func(b *testing.B) {
		ablationCell(b, core.NewADTDVS(), checkpoint.SCPSetting(), 0.78, 0.0014, 5)
	})
	b.Run("with-SCPs-A_D_S", func(b *testing.B) {
		ablationCell(b, core.NewAdaptDVSSCP(), checkpoint.SCPSetting(), 0.78, 0.0014, 5)
	})
}

// BenchmarkAblationCostRatio swaps the sub-checkpoint flavour against
// the cost regime: each flavour wins exactly in the regime whose
// dominant cost it avoids (the paper's central design insight).
func BenchmarkAblationCostRatio(b *testing.B) {
	b.Run("scp-setting/A_D_S", func(b *testing.B) {
		ablationCell(b, core.NewAdaptDVSSCP(), checkpoint.SCPSetting(), 0.80, 0.0014, 5)
	})
	b.Run("scp-setting/A_D_C", func(b *testing.B) {
		ablationCell(b, core.NewAdaptDVSCCP(), checkpoint.SCPSetting(), 0.80, 0.0014, 5)
	})
	b.Run("ccp-setting/A_D_S", func(b *testing.B) {
		ablationCell(b, core.NewAdaptDVSSCP(), checkpoint.CCPSetting(), 0.80, 0.0014, 5)
	})
	b.Run("ccp-setting/A_D_C", func(b *testing.B) {
		ablationCell(b, core.NewAdaptDVSCCP(), checkpoint.CCPSetting(), 0.80, 0.0014, 5)
	})
}

// BenchmarkAblationTMR compares the DMR paper scheme against triple
// modular redundancy with voting at equal λ (extension, paper ref [5]).
func BenchmarkAblationTMR(b *testing.B) {
	b.Run("dmr-A_D_S", func(b *testing.B) {
		ablationCell(b, core.NewAdaptDVSSCP(), checkpoint.SCPSetting(), 0.78, 0.0014, 5)
	})
	b.Run("tmr-vote", func(b *testing.B) {
		ablationCell(b, TMR(1), checkpoint.SCPSetting(), 0.78, 0.0014, 5)
	})
}

// BenchmarkAblationOnlineLambda compares planning with a known fault
// rate against the online Bayesian estimator under a badly wrong prior
// (reality 140× harsher than believed).
func BenchmarkAblationOnlineLambda(b *testing.B) {
	mis := func() sim.Params {
		tk, _ := task.FromUtilization("mis", 0.78, 1, 10000, 5)
		return sim.Params{
			Task: tk, Costs: checkpoint.SCPSetting(), Lambda: 1e-5,
			FaultProcess: func(src *rng.Source) fault.Process {
				return fault.NewPoisson(1.4e-3, src)
			},
		}
	}
	b.Run("static-wrong-prior", func(b *testing.B) {
		p := mis()
		var sum stats.Summary
		for i := 0; i < b.N; i++ {
			src := rng.New(uint64(i))
			var cell stats.Cell
			for r := 0; r < benchReps; r++ {
				res := core.NewAdaptDVSSCP().Run(p, src.Split())
				cell.Observe(res.Completed, res.Energy, res.Time, float64(res.Faults), float64(res.Switches))
			}
			sum = cell.Summary()
		}
		b.ReportMetric(sum.P, "P")
	})
	b.Run("online-estimator", func(b *testing.B) {
		p := mis()
		s := core.NewAdaptDVSSCP().WithOnlineLambda(1e-5)
		var sum stats.Summary
		for i := 0; i < b.N; i++ {
			src := rng.New(uint64(i))
			var cell stats.Cell
			for r := 0; r < benchReps; r++ {
				res := s.Run(p, src.Split())
				cell.Observe(res.Completed, res.Energy, res.Time, float64(res.Faults), float64(res.Switches))
			}
			sum = cell.Summary()
		}
		b.ReportMetric(sum.P, "P")
	})
}

// BenchmarkAblationIncremental measures full-image vs dirty-set stores
// on the ISA-level DMR executor (wall cycles reported as a metric).
func BenchmarkAblationIncremental(b *testing.B) {
	prog, err := Assemble(`
        ldi  r1, 200
        ldi  r2, 0
        ldi  r5, 0
    l:  add  r2, r2, r1
        st   r2, 0(r5)
        addi r5, r5, 1
        ldi  r7, 15
        blt  r5, r7, k
        ldi  r5, 0
    k:  addi r1, r1, -1
        bne  r1, r0, l
        halt`)
	if err != nil {
		b.Fatal(err)
	}
	base := DMRConfig{
		Prog: prog, MemWords: 512,
		IntervalCycles: 200, SubCount: 4, Sub: SCP,
		Costs:  checkpoint.Costs{Store: 64, Compare: 2, Rollback: 1},
		Lambda: 0.002,
	}
	run := func(b *testing.B, cfg DMRConfig) {
		var wall uint64
		for i := 0; i < b.N; i++ {
			r, err := ExecuteDMR(cfg, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			wall = r.WallCycles
		}
		b.ReportMetric(float64(wall), "wall-cycles")
	}
	b.Run("full-image", func(b *testing.B) { run(b, base) })
	inc := base
	inc.Incremental = true
	b.Run("incremental", func(b *testing.B) { run(b, inc) })
}
