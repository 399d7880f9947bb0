package experiment

import (
	"context"
	"testing"

	"repro/internal/telemetry"
)

// smallSpec is a cut-down Table 1a grid for fast telemetry assertions.
func smallSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	spec.Us = spec.Us[:2]
	spec.Lambdas = spec.Lambdas[:1]
	return spec
}

// TestRunnerSinkLedger: every cell of a completed table is counted
// exactly once, the reps counter matches cells × reps, the wall-time
// histogram saw every cell, and the plan ledger counts the plans the
// grid's adaptive schemes computed, with zero cache hits.
func TestRunnerSinkLedger(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(1024)
	sink := telemetry.NewRegistrySink(reg, tr)

	spec := smallSpec(t)
	const reps = 40
	runner := Runner{Reps: reps, Seed: 3, Workers: 3, Sink: sink}
	tbl, err := runner.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	done, total := tbl.CellsDone()
	if done != total {
		t.Fatalf("table incomplete: %d/%d", done, total)
	}

	if got := reg.Counter(MetricCellsCompleted, "").Value(); got != int64(total) {
		t.Errorf("%s = %d, want %d", MetricCellsCompleted, got, total)
	}
	if got := reg.Counter(MetricCellsFailed, "").Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricCellsFailed, got)
	}
	if got := reg.Counter(MetricReps, "").Value(); got != int64(total*reps) {
		t.Errorf("%s = %d, want %d", MetricReps, got, total*reps)
	}
	if got := reg.Histogram(MetricCellSeconds, "", nil).Snapshot().Count; got != int64(total) {
		t.Errorf("%s count = %d, want %d", MetricCellSeconds, got, total)
	}
	// Plans are computed directly: the miss family counts every plan
	// and the hit family stays at zero.
	hits := reg.Counter(MetricPlannerHits, "").Value()
	plans := reg.Counter(MetricPlannerMisses, "").Value()
	if hits != 0 || plans == 0 {
		t.Errorf("plan ledger: hits=%d plans=%d, want 0 hits and a non-empty plan count", hits, plans)
	}

	starts, finishes := 0, 0
	for _, ev := range tr.Snapshot() {
		switch ev.Name {
		case "cell.start":
			starts++
		case "cell.finish":
			finishes++
			if ok, _ := ev.Attrs["ok"].(bool); !ok {
				t.Errorf("cell.finish not ok: %+v", ev.Attrs)
			}
			if _, has := ev.Attrs["reps_per_sec"]; !has {
				t.Errorf("cell.finish missing reps_per_sec: %+v", ev.Attrs)
			}
		}
	}
	if starts != total || finishes != total {
		t.Errorf("trace saw %d starts / %d finishes, want %d each", starts, finishes, total)
	}
}

// TestRunnerSinkFailedCellCounted: a panicking scheme lands in the
// failed counter and the cell.finish event carries the error.
func TestRunnerSinkFailedCellCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink := telemetry.NewRegistrySink(reg, nil)
	spec := smallSpec(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already fired: every cell fails fast with ctx.Err()
	runner := Runner{Reps: 10, Seed: 1, Workers: 2, Sink: sink}
	if _, err := runner.RunTableCtx(ctx, spec); err == nil {
		t.Fatal("cancelled run reported no error")
	}
	failed := reg.Counter(MetricCellsFailed, "").Value()
	if failed == 0 {
		t.Error("no failed cells counted under a cancelled context")
	}
}

// TestRunnerSinkDoesNotPerturbResults: the same grid with and without a
// sink produces bit-identical summaries — telemetry is an observer,
// never an input.
func TestRunnerSinkDoesNotPerturbResults(t *testing.T) {
	spec := smallSpec(t)
	plain, err := Runner{Reps: 30, Seed: 9, Workers: 2}.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewRegistrySink(telemetry.NewRegistry(), telemetry.NewTracer(64))
	traced, err := Runner{Reps: 30, Seed: 9, Workers: 2, Sink: sink}.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range plain.Rows {
		for j, cell := range row.Cells {
			if cell.Summary != traced.Rows[i].Cells[j].Summary {
				t.Fatalf("row %d cell %d: sink changed the result\nplain  %+v\ntraced %+v",
					i, j, cell.Summary, traced.Rows[i].Cells[j].Summary)
			}
		}
	}
}
