package experiment

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// TestExecUnitWarmEqualsCold pins the pooled-context contract of remote
// units: a unit executed on contexts warmed by other work — another
// table, another column, a tiered-store cell and an imperfect-FT run —
// returns exactly the bytes of the same unit on fresh contexts, and so
// does the pooled ExecUnits entry point, which runs every unit of the
// list back to back on one context pair.
func TestExecUnitWarmEqualsCold(t *testing.T) {
	t1a, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	t3b, err := TableByID("3b")
	if err != nil {
		t.Fatal(err)
	}
	e4 := t1a
	e4.ID, e4.Store = "E4", store.DefaultConfig(4)
	adaptive := len(t1a.Schemes()) - 1

	type unit struct {
		name      string
		spec      Spec
		col       int
		u, lambda float64
	}
	units := []unit{
		{"adaptive", t1a, adaptive, 0.78, 0.0016},
		{"fixed-CSCP", t1a, 0, 0.80, 0.0014},
		{"store", e4, adaptive, 0.76, 0.0014},
	}
	ctx := context.Background()
	const seed, start, end = 5, 40, 240

	warm := func(t *testing.T, rctx *sim.RunContext, bctx *sim.BatchContext) {
		t.Helper()
		for _, w := range []unit{
			{"other table", t3b, adaptive, 0.95, 2e-4},
			{"other column", t1a, 1, 0.82, 0.0016},
			{"store config", e4, adaptive, 0.80, 0.0016},
		} {
			if _, err := execUnit(ctx, rctx, bctx, w.spec, w.col, w.u, w.lambda, 99, 0, 120); err != nil {
				t.Fatalf("warm-up %s: %v", w.name, err)
			}
		}
		// Imperfect fault tolerance is no table column; run it on the
		// same contexts directly.
		p, err := t1a.CellParams(0.78, 0.0016)
		if err != nil {
			t.Fatal(err)
		}
		imp := ImperfectScheme(t1a.Schemes()[adaptive], DefaultImperfection())
		var sh stats.Shard
		if _, err := execRange(ctx, rctx, bctx, &sh, imp, p, 123, 0, 120, false); err != nil {
			t.Fatalf("warm-up imperfect FT: %v", err)
		}
	}

	colds := make([][]byte, len(units))
	for i, u := range units {
		t.Run(u.name, func(t *testing.T) {
			cold, err := execUnit(ctx, sim.NewRunContext(), sim.NewBatchContext(), u.spec, u.col, u.u, u.lambda, seed, start, end)
			if err != nil {
				t.Fatal(err)
			}
			colds[i] = cold
			rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()
			warm(t, rctx, bctx)
			got, err := execUnit(ctx, rctx, bctx, u.spec, u.col, u.u, u.lambda, seed, start, end)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, cold) {
				t.Errorf("warm contexts changed the unit's shard bytes")
			}
			var pooled []byte
			if err := ExecUnits(ctx, u.spec, seed, []Unit{{u.col, u.u, u.lambda, start, end}}, func(_ int, data []byte) { pooled = data }); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pooled, cold) {
				t.Errorf("pooled ExecUnits differs from a cold unit")
			}
		})
	}
	// One list of units of the same spec runs them back to back on one
	// context pair: each must still equal its cold bytes.
	list := []Unit{{adaptive, 0.78, 0.0016, start, end}, {0, 0.80, 0.0014, start, end}, {adaptive, 0.78, 0.0016, start, end}}
	want := [][]byte{colds[0], colds[1], colds[0]}
	n := 0
	if err := ExecUnits(ctx, t1a, seed, list, func(i int, data []byte) {
		n++
		if !bytes.Equal(data, want[i]) {
			t.Errorf("unit %d of a back-to-back list differs from its cold bytes", i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(list) {
		t.Errorf("ExecUnits reported %d of %d units", n, len(list))
	}
}

// raceDetector is set under -race, where sync.Pool drops a share of Puts
// at random by design and instrumentation allocates, so allocation
// guards on pooled paths measure the detector, not the code.
var raceDetector bool

// TestExecUnitAllocBound guards the per-unit heap cost of a worker: warm
// 200-rep Table 1a units, cycling columns and U, must allocate no more
// than 64 KiB each on average. A context built per unit allocates a
// 1 MiB plan cache for every adaptive-column unit and fails this.
func TestExecUnitAllocBound(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	ncol := len(spec.Schemes())
	run := func(i int) {
		u := spec.Us[(i/ncol)%len(spec.Us)]
		lambda := spec.Lambdas[(i/(ncol*len(spec.Us)))%len(spec.Lambdas)]
		if err := ExecUnits(context.Background(), spec, 11, []Unit{{i % ncol, u, lambda, 200 * i, 200 * (i + 1)}}, func(int, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	run(0) // warm the pool
	const units = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= units; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	perUnit := (after.TotalAlloc - before.TotalAlloc) / units
	t.Logf("%d B allocated per unit", perUnit)
	if perUnit > 64<<10 {
		t.Errorf("ExecUnits allocates %d B per warm unit, want ≤ %d", perUnit, 64<<10)
	}
}
