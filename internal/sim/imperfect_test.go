package sim

import (
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/store"
)

// fixedScheme is a minimal in-package scheme: constant-interval CSCPs at
// f=1 with m sub-checkpoints of the given flavour — enough to exercise
// every imperfect-FT path without importing the core schemes.
type fixedScheme struct {
	itv float64
	m   int
	sub checkpoint.Kind
}

func (s fixedScheme) Name() string { return "fixed" }

func (s fixedScheme) Run(p Params, src *rng.Source) Result {
	e := NewEngine(p, src)
	rc := p.Task.Cycles
	for i := 0; i < p.MaxIntervalBudget(); i++ {
		if rc > p.Task.Deadline-e.Now() {
			return e.Finish(false, FailInfeasible)
		}
		cur := math.Min(s.itv, rc)
		kept, _ := e.RunInterval(cur, s.m, s.sub, p.Task.Cycles-rc)
		rc -= kept
		if rc <= EpsWork {
			if e.Now() <= p.Task.Deadline {
				return e.Finish(true, FailNone)
			}
			return e.Finish(false, FailDeadline)
		}
	}
	return e.Finish(false, FailGuard)
}

func imperfectParams(lambda float64, im fault.Imperfection) Params {
	p := params(0.60, 1, lambda, 5, checkpoint.SCPSetting())
	p.Imperfect = &im
	return p
}

func TestImperfectValidate(t *testing.T) {
	for _, im := range []fault.Imperfection{
		{Coverage: -0.1},
		{Coverage: 1.5},
		{Coverage: 1, StoreCorruption: 2},
		{Coverage: 1, CascadeBudget: -1},
		{Coverage: math.NaN()},
	} {
		p := imperfectParams(0.001, im)
		if err := p.Validate(); err == nil {
			t.Errorf("imperfection %+v accepted", im)
		}
	}
	ok := imperfectParams(0.001, fault.Imperfection{Coverage: 0.5, StoreCorruption: 0.5})
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCoverageNeverDetects(t *testing.T) {
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
	p := imperfectParams(0.002, fault.Imperfection{Coverage: 0})
	sawCorrupt := false
	for seed := uint64(0); seed < 50; seed++ {
		r := s.Run(p, rng.New(seed))
		if r.Detections != 0 {
			t.Fatalf("seed %d: coverage 0 detected %d divergences", seed, r.Detections)
		}
		if r.Faults > 0 {
			if !r.Completed {
				t.Fatalf("seed %d: with no rollbacks the run should complete: %+v", seed, r)
			}
			if !r.SilentCorruption {
				t.Fatalf("seed %d: %d faults undetected but no silent corruption flagged", seed, r.Faults)
			}
			if r.MissedDetections == 0 {
				t.Fatalf("seed %d: no missed detections counted", seed)
			}
			sawCorrupt = true
		} else if r.SilentCorruption {
			t.Fatalf("seed %d: silent corruption without any fault", seed)
		}
	}
	if !sawCorrupt {
		t.Fatal("no faulty run observed in 50 seeds at λ=0.002")
	}
}

func TestFullCoverageMatchesIdealTrajectory(t *testing.T) {
	// Coverage 1 with every other knob ideal must follow the seed code
	// path exactly — even when supplied as an explicit Imperfection.
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
	base := params(0.60, 1, 0.002, 5, checkpoint.SCPSetting())
	withKnobs := base
	im := fault.IdealFT()
	withKnobs.Imperfect = &im
	for seed := uint64(0); seed < 20; seed++ {
		a := s.Run(base, rng.New(seed))
		b := s.Run(withKnobs, rng.New(seed))
		if a != b {
			t.Fatalf("seed %d: ideal knobs diverged:\n %+v\n %+v", seed, a, b)
		}
	}
}

func TestStoreCorruptionCascadesAndRestarts(t *testing.T) {
	// Every store corrupted: every recovery must exhaust the cascade and
	// restart from the beginning, and the run must still terminate.
	// Without a Params.Store the restarts must not reach the caller's
	// store counters: StoreStats belongs to tiered-store runs only.
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
	p := imperfectParams(0.002, fault.Imperfection{Coverage: 1, StoreCorruption: 1})
	var st store.Stats
	p.StoreStats = &st
	sawRestart := false
	for seed := uint64(0); seed < 50; seed++ {
		r := s.Run(p, rng.New(seed))
		if r.Reason == FailGuard {
			t.Fatalf("seed %d: cascade did not terminate", seed)
		}
		if r.Detections > 0 {
			if r.Restarts != r.Detections {
				t.Fatalf("seed %d: %d detections but %d restarts (all stores corrupt)",
					seed, r.Detections, r.Restarts)
			}
			if r.CorruptRestores == 0 {
				t.Fatalf("seed %d: restarted without trying any store", seed)
			}
			sawRestart = true
		}
	}
	if !sawRestart {
		t.Fatal("no detected fault in 50 seeds")
	}
	if st != (store.Stats{}) {
		t.Fatalf("storeless imperfect runs wrote store stats: %+v", st)
	}
}

func TestCascadeBudgetBoundsAttempts(t *testing.T) {
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
	p := imperfectParams(0.002, fault.Imperfection{
		Coverage: 1, StoreCorruption: 1, CascadeBudget: 2,
	})
	for seed := uint64(0); seed < 50; seed++ {
		r := s.Run(p, rng.New(seed))
		if r.Detections > 0 && r.CorruptRestores > 2*r.Detections {
			t.Fatalf("seed %d: %d corrupt restores exceed budget 2 × %d recoveries",
				seed, r.CorruptRestores, r.Detections)
		}
	}
}

func TestCascadeCrossesIntervalBoundary(t *testing.T) {
	// With corrupted stores, a rollback can land before the interval
	// start: RunInterval then reports negative kept work.
	p := imperfectParams(0.004, fault.Imperfection{Coverage: 1, StoreCorruption: 0.9})
	sawNegative := false
	for seed := uint64(0); seed < 400 && !sawNegative; seed++ {
		e := NewEngine(p, rng.New(seed))
		done := 0.0
		for i := 0; i < 8; i++ {
			kept, _ := e.RunInterval(500, 5, checkpoint.SCP, done)
			if kept < 0 {
				sawNegative = true
				if done+kept < -epsWork {
					t.Fatalf("rolled back below the task start: done=%v kept=%v", done, kept)
				}
				break
			}
			done += kept
		}
	}
	if !sawNegative {
		t.Fatal("no cross-interval cascade observed in 400 seeds")
	}
}

func TestCheckpointVulnerableExposesOps(t *testing.T) {
	// With vulnerable checkpoints and an enormous checkpoint cost, faults
	// must arrive even though no useful execution happens in the spans
	// between them (λ exposure through checkpoint time alone).
	p := imperfectParams(0.01, fault.Imperfection{Coverage: 1, CheckpointVulnerable: true})
	p.Costs = checkpoint.Costs{Store: 400, Compare: 400}
	e := NewEngine(p, rng.New(5))
	faultsBefore := e.faults
	e.checkpointOpImperfect(checkpoint.CSCP, 0)
	if e.faults == faultsBefore {
		t.Fatal("no fault during an 800-cycle vulnerable checkpoint at λ=0.01")
	}
	if math.IsInf(e.led.divergedAt, 1) {
		t.Fatal("checkpoint-time fault did not corrupt state")
	}
	imgs := e.led.Images()
	if len(imgs) != 1 || !imgs[0].Diverged {
		t.Fatalf("image written under a mid-op fault should be diverged: %+v", imgs)
	}
}

func TestImperfectDeterminism(t *testing.T) {
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.CCP}
	p := imperfectParams(0.003, fault.Imperfection{
		Coverage: 0.8, StoreCorruption: 0.3, CheckpointVulnerable: true,
	})
	p.Costs = checkpoint.CCPSetting()
	for seed := uint64(0); seed < 10; seed++ {
		a := s.Run(p, rng.New(seed))
		b := s.Run(p, rng.New(seed))
		if a != b {
			t.Fatalf("seed %d: imperfect run not deterministic", seed)
		}
	}
}

func TestImperfectTraceEvents(t *testing.T) {
	s := fixedScheme{itv: 500, m: 5, sub: checkpoint.SCP}
	p := imperfectParams(0.003, fault.Imperfection{Coverage: 0.5, StoreCorruption: 0.7})
	var missed, bad, restarts int
	for seed := uint64(0); seed < 60; seed++ {
		tr := &Trace{}
		q := p
		q.Trace = tr
		r := s.Run(q, rng.New(seed))
		if got := tr.Count(EvMissedDetect); got != r.MissedDetections {
			t.Fatalf("seed %d: trace misses %d, result %d", seed, got, r.MissedDetections)
		}
		if got := tr.Count(EvBadStore); got != r.CorruptRestores {
			t.Fatalf("seed %d: trace bad-stores %d, result %d", seed, got, r.CorruptRestores)
		}
		if got := tr.Count(EvRestart); got != r.Restarts {
			t.Fatalf("seed %d: trace restarts %d, result %d", seed, got, r.Restarts)
		}
		missed += r.MissedDetections
		bad += r.CorruptRestores
		restarts += r.Restarts
	}
	if missed == 0 || bad == 0 || restarts == 0 {
		t.Fatalf("imperfect paths unexercised: missed=%d bad=%d restarts=%d", missed, bad, restarts)
	}
}
