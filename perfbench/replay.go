package main

import (
	"math"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// repKeySalt separates a cell's quantile-sketch key stream from its rng
// seed stream, as the experiment runner derives them.
const repKeySalt = 0xd1342543de82ef95

// cellRef is one grid cell an op ran: enough to replay its shards.
type cellRef struct {
	spec      experiment.Spec
	scheme    sim.Scheme
	u, lambda float64
	base      uint64 // the op's base seed
	reps      int
	// shard is the reps per shard the op's executor cut the cell into.
	shard int
	// want is what the op reported for the cell, as fields projects a
	// summary: every field on the library workloads, the rendered grid
	// cell on the job workloads.
	want   []float64
	fields func(stats.Summary) []float64
}

// replayStats accumulates the lower-layer timings of the replay.
type replayStats struct {
	rngNS, arrivalsNS, batchNS, scalarNS, observeNS      time.Duration
	rngReps, arrivalReps, batchReps, scalarReps, obsReps int64
	encodeNS, decodeNS                                   time.Duration
	shards, batched, fallback, shardBytes                int64
	mergeNS                                              time.Duration
	cells, mismatches                                    int
	badOps                                               int // ops with a mismatched cell
}

// replayCells re-executes the traced window's cells shard by shard
// through each lower layer's public entry point — seed streams and
// state batches (rng), arrival queues (fault), the batch kernel
// (core, via sim.RunBatch), the scalar engine (sim.RunScheme) and the
// stats.Shard intake, codec and merge — timing each separately. Cells
// are cut into the shards the op's executor sent. The merged summaries
// must equal what the op reported, and the batch and scalar paths must
// agree on every repetition; a difference counts as a failure. It stops
// starting new cells after budget.
func replayCells(ph *phase, budget time.Duration) *replayStats {
	rs := &replayStats{}
	deadline := time.Now().Add(budget)
	rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()
	var states rng.StateBatch
	var src rng.Source
	var arr fault.Arrivals
	var seeds, keys []uint64
	var scalar []sim.Result
	var buf []byte
	for _, o := range ph.sorted() {
		before := rs.mismatches
		for _, c := range o.cells {
			if time.Now().After(deadline) {
				break
			}
			params, err := c.spec.CellParams(c.u, c.lambda)
			if err != nil {
				rs.mismatches++
				continue
			}
			size := c.shard
			if len(seeds) < size {
				seeds, keys, scalar = make([]uint64, size), make([]uint64, size), make([]sim.Result, size)
			}
			cellSeed := experiment.CellSeed(c.base, c.spec.ID, c.u, c.lambda, c.scheme.Name())
			var decoded []stats.Shard
			for start := 0; start < c.reps; start += size {
				n := min(size, c.reps-start)
				sd, ks := seeds[:n], keys[:n]

				t := time.Now()
				rng.StreamBatch(cellSeed, start, sd)
				rng.StreamBatch(cellSeed^repKeySalt, start, ks)
				states.Reseed(sd)
				rs.rngNS += time.Since(t)
				rs.rngReps += int64(n)

				if c.lambda > 0 {
					hint := int(math.Ceil(2*c.lambda*experiment.Deadline)) + 1
					t = time.Now()
					for i := 0; i < n; i++ {
						states.Load(&src, i)
						arr.Reset(c.lambda, &src, hint)
						arr.EnsureBeyond(experiment.Deadline)
					}
					rs.arrivalsNS += time.Since(t)
					rs.arrivalReps += int64(n)
				}

				bctx.Grow(n)
				copy(bctx.Seeds, sd)
				copy(bctx.Keys, ks)
				t = time.Now()
				ok := sim.RunBatch(rctx, bctx, c.scheme, params, bctx.Seeds[:n])
				d := time.Since(t)

				t = time.Now()
				for i := 0; i < n; i++ {
					scalar[i] = sim.RunScheme(rctx, c.scheme, params, rctx.Reseed(sd[i]))
				}
				rs.scalarNS += time.Since(t)
				rs.scalarReps += int64(n)

				var sh stats.Shard
				if ok {
					rs.batched++
					rs.batchNS += d
					rs.batchReps += int64(n)
					for i := 0; i < n; i++ {
						r := scalar[i]
						if r.Completed != bctx.Completed[i] || r.Energy != bctx.Energy[i] || r.Time != bctx.Time[i] {
							rs.mismatches++
							break
						}
					}
					t = time.Now()
					sh.ObserveRuns(bctx.Keys[:n], bctx.Completed[:n], bctx.Energy[:n], bctx.Time[:n], bctx.Faults[:n], bctx.Switches[:n])
				} else {
					rs.fallback++
					t = time.Now()
					for i := 0; i < n; i++ {
						r := scalar[i]
						sh.ObserveRun(ks[i], r.Completed, r.SilentCorruption, r.Energy, r.Time, float64(r.Faults), float64(r.Switches))
					}
				}
				rs.observeNS += time.Since(t)
				rs.obsReps += int64(n)

				t = time.Now()
				buf = sh.AppendBinary(buf[:0])
				rs.encodeNS += time.Since(t)
				rs.shardBytes += int64(len(buf))
				t = time.Now()
				var back stats.Shard
				if err := back.UnmarshalBinary(buf); err != nil {
					rs.mismatches++
				}
				rs.decodeNS += time.Since(t)
				rs.shards++
				decoded = append(decoded, back)
			}
			t := time.Now()
			var agg stats.Shard
			for i := range decoded {
				agg.Merge(&decoded[i])
			}
			sum := agg.Summary()
			rs.mergeNS += time.Since(t)
			rs.cells++
			if !sameBits(c.fields(sum), c.want) {
				rs.mismatches++
			}
		}
		if rs.mismatches > before {
			rs.badOps++
		}
	}
	return rs
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func (rs *replayStats) metrics() map[string]float64 {
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	m := map[string]float64{
		"rng.reseed_ns_per_rep":     per(rs.rngNS, rs.rngReps),
		"fault.arrivals_ns_per_rep": per(rs.arrivalsNS, rs.arrivalReps),
		"core.batch_ns_per_rep":     per(rs.batchNS, rs.batchReps),
		"sim.scalar_ns_per_rep":     per(rs.scalarNS, rs.scalarReps),
		"stats.observe_ns_per_rep":  per(rs.observeNS, rs.obsReps),
		"stats.shard_encode_us":     per(rs.encodeNS, rs.shards) / 1000,
		"stats.shard_decode_us":     per(rs.decodeNS, rs.shards) / 1000,
		"stats.merge_us_per_cell":   per(rs.mergeNS, int64(rs.cells)) / 1000,
	}
	if rs.shards > 0 {
		m["stats.shard_bytes"] = float64(rs.shardBytes) / float64(rs.shards)
		m["core.batch_shard_ratio"] = float64(rs.batched) / float64(rs.shards)
	}
	return m
}
