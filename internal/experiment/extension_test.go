package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestExtensionTablesDefined(t *testing.T) {
	specs := ExtensionTables()
	if len(specs) != 4 {
		t.Fatalf("extension tables = %d", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", s.ID, err)
		}
		if _, err := ExtensionSchemes(s.ID); err != nil {
			t.Errorf("no schemes for %s: %v", s.ID, err)
		}
	}
	if _, err := ExtensionSchemes("E9"); err == nil {
		t.Error("unknown extension id accepted")
	}
}

func TestExtensionE1TMRColumn(t *testing.T) {
	specs := ExtensionTables()
	spec := specs[0]
	spec.Us = spec.Us[:1]
	spec.Lambdas = spec.Lambdas[:1]
	tbl, err := (Runner{Reps: 300, Seed: 31}).RunExtensionTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	row := tbl.Rows[0]
	if row.Cells[2].Scheme != "TMR_DVS" {
		t.Fatalf("column 2 = %s", row.Cells[2].Scheme)
	}
	ads, tmrCol := row.Cells[1], row.Cells[2]
	// TMR masks single faults: completion at least as good as A_D_S, at
	// a clear energy premium.
	if tmrCol.P < ads.P-0.02 {
		t.Fatalf("TMR_DVS P %v below A_D_S %v", tmrCol.P, ads.P)
	}
	if !(tmrCol.E > 1.2*ads.E) {
		t.Fatalf("TMR_DVS E %v should carry the third-replica premium over %v", tmrCol.E, ads.E)
	}
}

func TestExtensionE2OnlineRecovers(t *testing.T) {
	specs := ExtensionTables()
	spec := specs[1]
	spec.Us = spec.Us[:1]
	spec.Lambdas = spec.Lambdas[:1]
	tbl, err := (Runner{Reps: 300, Seed: 32}).RunExtensionTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	row := tbl.Rows[0]
	informed, wrong, online := row.Cells[0], row.Cells[1], row.Cells[2]
	if !strings.Contains(wrong.Scheme, "λ-belief") || !strings.Contains(online.Scheme, "est") {
		t.Fatalf("column names: %q %q", wrong.Scheme, online.Scheme)
	}
	if !(wrong.P < informed.P-0.05) {
		t.Fatalf("10× underestimate should hurt: wrong=%v informed=%v", wrong.P, informed.P)
	}
	if !(online.P > wrong.P+0.05) {
		t.Fatalf("online estimator should recover: online=%v wrong=%v", online.P, wrong.P)
	}
	// Extension tables carry no published references.
	if _, ok := tbl.Score(); ok {
		t.Fatal("extension table claims paper references")
	}
}

func TestExtensionE3ImperfectFT(t *testing.T) {
	specs := ExtensionTables()
	spec := specs[2]
	if spec.ID != "E3" {
		t.Fatalf("third extension table = %s", spec.ID)
	}
	spec.Us = spec.Us[1:2] // U=0.78
	spec.Lambdas = spec.Lambdas[:1]
	tbl, err := (Runner{Reps: 400, Seed: 33}).RunExtensionTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	row := tbl.Rows[0]
	ideal, impADS := row.Cells[0], row.Cells[4]
	if !strings.HasSuffix(impADS.Scheme, "+imp") {
		t.Fatalf("column 4 = %s", impADS.Scheme)
	}
	// The ideal reference never corrupts silently; the imperfect columns
	// must show non-zero SDC somewhere on this grid point.
	if ideal.SDC != 0 {
		t.Fatalf("ideal column SDC = %v", ideal.SDC)
	}
	sawSDC := false
	for _, c := range row.Cells[1:] {
		if c.SDC > 0 {
			sawSDC = true
		}
	}
	if !sawSDC {
		t.Fatal("no imperfect column shows silent corruption")
	}
	// Imperfection costs completion probability: the imperfect paper
	// scheme cannot beat its ideal self.
	if impADS.P > ideal.P+0.02 {
		t.Fatalf("imperfect A_D_S P %v above ideal %v", impADS.P, ideal.P)
	}
	// The Markdown rendering grows SDC columns exactly when they carry
	// signal.
	md := tbl.Markdown()
	if !strings.Contains(md, "SDC") {
		t.Fatal("E3 markdown lacks SDC columns")
	}
	if !strings.Contains(tbl.CSV(), ",sdc") {
		t.Fatal("CSV header lacks sdc column")
	}
}

// TestExtensionTablesTableContract: extension tables run through the
// same table path as the paper tables, so E1–E4 keep its contract —
// every cell marked Done, OnCell once per cell, and a fired context
// returning the partial table with the error.
func TestExtensionTablesTableContract(t *testing.T) {
	for _, spec := range ExtensionTables() {
		schemes, err := ExtensionSchemes(spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := len(spec.Us) * len(spec.Lambdas) * len(schemes)
		calls := 0
		r := Runner{Reps: 8, Seed: 34, Workers: 2, OnCell: func(done, total int) {
			calls++
			if done != calls || total != want {
				t.Errorf("%s: OnCell(%d, %d) on call %d, want (%d, %d)", spec.ID, done, total, calls, calls, want)
			}
		}}
		tbl, err := r.RunExtensionTable(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if done, total := tbl.CellsDone(); done != want || total != want {
			t.Errorf("%s: CellsDone = %d of %d, want %d of %d", spec.ID, done, total, want, want)
		}
		if calls != want {
			t.Errorf("%s: OnCell fired %d times, want %d", spec.ID, calls, want)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		part, err := (Runner{Reps: 8, Seed: 34, Workers: 2}).runTable(ctx, spec, schemes)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled run err = %v, want context.Canceled", spec.ID, err)
		}
		if done, total := part.CellsDone(); total != want || done == total {
			t.Errorf("%s: cancelled run kept %d of %d cells done, want a partial table of %d", spec.ID, done, total, want)
		}
	}
}
