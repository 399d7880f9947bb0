// Remote execution surface: ExecUnit runs one (cell, rep-range) work
// unit from nothing but the cell's grid coordinates and the base seed,
// and returns the canonical stats.Shard encoding of exactly those
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

// ExecUnit executes repetitions [start, end) of the (table, scheme
// column, U, λ) cell under base seed and returns the canonical
// stats.Shard bytes. A panicking scheme is recovered into a *CellError
// (Panicked set, stack captured) so a worker process survives any
// malformed cell. col indexes spec.Schemes(). The unit runs on a pooled
// context pair, which goes back to the pool unless the scheme panicked.
func ExecUnit(ctx context.Context, spec Spec, col int, u, lambda float64, seed uint64, start, end int) ([]byte, error) {
	sc := sim.GetContexts()
	data, err := execUnit(ctx, &sc.Run, &sc.Batch, spec, col, u, lambda, seed, start, end)
	if !panicked(err) {
		sim.PutContexts(sc)
	}
	return data, err
}

// execUnit is ExecUnit on explicit contexts.
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
	if err := c.exec(ctx, rctx, bctx, &scratch, start, end, nil, false); err != nil {
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
