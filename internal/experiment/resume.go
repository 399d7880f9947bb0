// Shard-checkpointed resume: because every repetition's rng stream and
// sketch key are pure functions of (cellSeed, rep) and stats.Shard is an
// order-independent algebra, a completed rep-shard serialised to bytes
// is a perfect substitute for re-executing it. Recovery hands the runner
// the checkpoints that survived a crash; the runner merges them and
// schedules work only over the gaps — and the finished table is
// bit-for-bit identical to an uninterrupted run.

package experiment

import (
	"sort"

	"repro/internal/stats"
)

// Recovery-side metric families, counted alongside the execution-side
// ones: a resumed table satisfies
//
//	grid_reps_total + grid_reps_recovered_total == cells × reps
//
// exactly (no silent drop, no double count), which is the kill-recover
// soak's central ledger.
const (
	// MetricRepsRecovered counts repetitions restored from checkpoints
	// instead of executed.
	MetricRepsRecovered = "grid_reps_recovered_total"
	// MetricShardsRecovered counts shard checkpoints accepted and merged
	// during resume.
	MetricShardsRecovered = "grid_shards_recovered_total"
)

// ShardCheckpoint is one persisted (cell, rep-range) shard: Data is the
// stats.Shard binary encoding of repetitions [Start, End).
type ShardCheckpoint struct {
	Start, End int
	Data       []byte
}

// recoveredShard is a validated, decoded checkpoint.
type recoveredShard struct {
	start, end int
	shard      stats.Shard
}

// validRecovered filters checkpoints down to a sorted, disjoint,
// in-range, correctly-decoded subset. Anything suspect — out of range,
// overlapping, undecodable, or claiming a trial count that disagrees
// with its rep range — is dropped, and the runner simply recomputes
// those reps: recovery may never be less correct than a cold run, only
// cheaper.
func validRecovered(cps []ShardCheckpoint, reps int) []recoveredShard {
	decoded := make([]recoveredShard, 0, len(cps))
	for _, cp := range cps {
		if cp.Start < 0 || cp.End <= cp.Start || cp.End > reps {
			continue
		}
		var sh stats.Shard
		if err := sh.UnmarshalBinary(cp.Data); err != nil {
			continue
		}
		if sh.Trials() != cp.End-cp.Start {
			continue
		}
		decoded = append(decoded, recoveredShard{start: cp.Start, end: cp.End, shard: sh})
	}
	sort.Slice(decoded, func(i, j int) bool {
		if decoded[i].start != decoded[j].start {
			return decoded[i].start < decoded[j].start
		}
		return decoded[i].end < decoded[j].end
	})
	kept := decoded[:0]
	pos := 0
	for i := range decoded {
		if decoded[i].start < pos {
			continue // overlaps something already kept (duplicates included)
		}
		kept = append(kept, decoded[i])
		pos = decoded[i].end
	}
	return kept
}

// ShardRange is a half-open repetition range [Start, End) of one cell —
// the gaps RecoverInto reports for re-execution.
type ShardRange struct {
	Start, End int
}

// RecoverInto merges the surviving checkpoints of one cell into agg —
// after the validation gauntlet of validRecovered (in-range, disjoint,
// decodable, trial-count-matching; anything suspect is recomputed, never
// trusted) — and returns the number of repetitions restored, the number
// of checkpoints accepted, and the uncovered ranges chunked by size.
// With no checkpoints the gaps are the whole cell. It is the one gap
// carver: the local scheduler and the cluster coordinator both feed
// every cell through it and execute only the gaps.
func RecoverInto(agg *stats.Shard, cps []ShardCheckpoint, reps, size int) (recovered, shards int, gaps []ShardRange) {
	if size <= 0 {
		size = DefaultShardSize
	}
	valid := validRecovered(cps, reps)
	for i := range valid {
		agg.Merge(&valid[i].shard)
		recovered += valid[i].end - valid[i].start
	}
	emit := func(lo, hi int) {
		for s := lo; s < hi; s += size {
			gaps = append(gaps, ShardRange{Start: s, End: min(s+size, hi)})
		}
	}
	pos := 0
	for _, rc := range valid {
		emit(pos, rc.start)
		pos = rc.end
	}
	emit(pos, reps)
	return recovered, len(valid), gaps
}
