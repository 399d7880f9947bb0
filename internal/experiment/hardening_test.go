package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// panicScheme blows up on every run — a stand-in for a buggy scheme
// implementation plugged into the harness.
type panicScheme struct{}

func (panicScheme) Name() string { return "boom" }

func (panicScheme) Run(sim.Params, *rng.Source) sim.Result {
	panic("scheme exploded")
}

// checkPanicError asserts err is the scheduler's recovered-panic
// *CellError for the boom column at (table, u): Panicked set, a stack
// captured, and the message naming the table, U, scheme and panic value.
func checkPanicError(t *testing.T, err error, table string, u float64) {
	t.Helper()
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T (%v) is not a *CellError", err, err)
	}
	if !ce.Panicked || len(ce.Stack) == 0 {
		t.Fatalf("cell error Panicked=%v with %d stack bytes, want a recovered panic with its stack", ce.Panicked, len(ce.Stack))
	}
	if ce.Table != table || ce.U != u || ce.Scheme != "boom" {
		t.Fatalf("cell error names %s U=%v %s, want %s U=%v boom", ce.Table, ce.U, ce.Scheme, table, u)
	}
	for _, want := range []string{table, fmt.Sprintf("U=%.2f", u), "boom", "scheme exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

// TestSchedulerRecoversPanic drives a panicking scheme through the live
// scheduler: a single cell across two workers, and one column of a
// table. Either way the panic comes back as a *CellError naming the
// cell, and in the table the other columns still finish while the
// panicked cell stays not-done.
func TestSchedulerRecoversPanic(t *testing.T) {
	spec, _ := TableByID("1a")
	spec.Us = spec.Us[1:2] // U=0.78
	spec.Lambdas = spec.Lambdas[:1]
	r := Runner{Reps: 300, Seed: 1, Workers: 2, ShardSize: 50}

	_, err := r.RunCellCtx(context.Background(), spec, panicScheme{}, 0.78, 0.0014)
	checkPanicError(t, err, "1a", 0.78)

	schemes := spec.Schemes()
	const boom = 2
	schemes[boom] = panicScheme{}
	tbl, err := r.runTable(context.Background(), spec, schemes)
	checkPanicError(t, err, "1a", 0.78)
	if len(tbl.Rows) != 1 || len(tbl.Rows[0].Cells) != len(schemes) {
		t.Fatalf("partial table lost its shape: %+v", tbl.Rows)
	}
	for ci, cell := range tbl.Rows[0].Cells {
		if cell.Done != (ci != boom) {
			t.Errorf("column %d (%s) Done=%v", ci, cell.Scheme, cell.Done)
		}
		if ci != boom && cell.Trials != r.Reps {
			t.Errorf("column %d (%s) ran %d trials, want %d", ci, cell.Scheme, cell.Trials, r.Reps)
		}
	}
	if done, total := tbl.CellsDone(); done != total-1 {
		t.Errorf("CellsDone = %d of %d, want all but the panicked cell", done, total)
	}
}

func TestRunCellCtxCancellation(t *testing.T) {
	spec, _ := TableByID("1a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Runner{Reps: 5000, Seed: 1}
	_, err := r.RunCellCtx(ctx, spec, spec.Schemes()[0], 0.78, 0.0014)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunTableCtxCancelledReturnsPartial(t *testing.T) {
	spec, _ := TableByID("1a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tbl, err := Runner{Reps: 2000, Seed: 2, Workers: 2}.RunTableCtx(ctx, spec)
	if err == nil {
		t.Fatal("cancelled table run succeeded")
	}
	// The partial table keeps its shape so completed cells stay usable.
	if len(tbl.Rows) != len(spec.Us)*len(spec.Lambdas) {
		t.Fatalf("partial table has %d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row.Cells) != len(spec.Schemes()) {
			t.Fatalf("partial row has %d cells", len(row.Cells))
		}
	}
}

func TestRunTableCtxUncancelledMatchesRunTable(t *testing.T) {
	spec, _ := TableByID("1a")
	spec.Us = spec.Us[:1]
	spec.Lambdas = spec.Lambdas[:1]
	a, err := Runner{Reps: 50, Seed: 4, Workers: 4}.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Runner{Reps: 50, Seed: 4, Workers: 4}.RunTableCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for j := range a.Rows[i].Cells {
			if a.Rows[i].Cells[j] != b.Rows[i].Cells[j] {
				t.Fatalf("row %d cell %d differs between RunTable and RunTableCtx", i, j)
			}
		}
	}
}
