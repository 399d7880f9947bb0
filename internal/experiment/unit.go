// Remote execution surface: ExecUnits runs (cell, rep-range) work units
// from nothing but the cells' grid coordinates and the base seed, and
// returns the canonical stats.Shard encoding of exactly each unit's
// repetitions. Because every rep's rng stream and sketch key are pure
// functions of (CellSeed, rep), the bytes are bit-identical to the shard
// checkpoint a local Runner would have produced for the same range — so
// a cluster coordinator can fold units computed on any mix of machines
// with the order-independent merge algebra and get a table that is
// byte-identical to a single-process run.

package experiment

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Unit addresses one work unit of a table: repetitions [Start, End) of
// the cell at scheme column Col (an index into Spec.Schemes()) and grid
// point (U, Lambda).
type Unit struct {
	Col        int
	U, Lambda  float64
	Start, End int
}

// ExecUnits executes units of spec under base seed in order, on one
// pooled context pair so consecutive units reuse its planner, and hands
// each unit's canonical stats.Shard bytes to done as it finishes. It
// stops at the first error. A panicking scheme is recovered into a
// *CellError (Panicked set, stack captured) so a worker process
// survives any malformed cell; the context pair then goes back to the
// pool only if no scheme panicked.
func ExecUnits(ctx context.Context, spec Spec, seed uint64, units []Unit, done func(i int, data []byte)) error {
	sc := sim.GetContexts()
	var err error
	for i, u := range units {
		var data []byte
		if data, err = execUnit(ctx, &sc.Run, &sc.Batch, spec, u.Col, u.U, u.Lambda, seed, u.Start, u.End); err != nil {
			break
		}
		done(i, data)
	}
	if !panicked(err) {
		sim.PutContexts(sc)
	}
	return err
}

// execUnit executes one unit on explicit contexts.
func execUnit(ctx context.Context, rctx *sim.RunContext, bctx *sim.BatchContext, spec Spec, col int, u, lambda float64, seed uint64, start, end int) ([]byte, error) {
	schemes := spec.Schemes()
	if col < 0 || col >= len(schemes) {
		return nil, fmt.Errorf("experiment: scheme column %d out of range [0,%d)", col, len(schemes))
	}
	if start < 0 || end <= start {
		return nil, fmt.Errorf("experiment: invalid rep range [%d,%d)", start, end)
	}
	c := Runner{Seed: seed}.newCellState(spec, 0, col, u, lambda, schemes[col])
	var scratch stats.Shard
	if _, err := c.exec(ctx, rctx, bctx, &scratch, start, end, nil, false); err != nil {
		return nil, err
	}
	return scratch.AppendBinary(nil), nil
}

// panicked reports whether err is a recovered scheme panic, after which
// the contexts the scheme ran on are dropped rather than reused.
func panicked(err error) bool {
	ce, ok := err.(*CellError)
	return ok && ce.Panicked
}
