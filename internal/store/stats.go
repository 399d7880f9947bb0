// Per-run-context store telemetry. A Stats is owned by one worker
// goroutine (no sharing, no atomics on the hot path): the Set counts its
// inserts into it (Set.CountInto), and the simulator's ledger its
// restore walks, truncations and restarts. The
// experiment runner flushes per-shard deltas into the telemetry sink,
// the same drain pattern the planner cache counters use.

package store

// DepthBuckets is the size of the rollback-depth histogram: bucket i
// counts recoveries that examined i+1 images; the last bucket absorbs
// deeper walks. The retention bound k caps the depth, so with k <=
// DepthBuckets the histogram is exact.
const DepthBuckets = 8

// Stats accumulates store activity across runs. All fields are plain
// counters; deltas are well-defined because nothing ever decreases.
type Stats struct {
	// Evictions counts images discarded by the maintenance policy at
	// the retention bound.
	Evictions uint64
	// Demotions counts images rewritten into a deeper tier by the
	// recency cascade.
	Demotions uint64
	// Truncated counts stale post-rollback images dropped after a
	// recovery.
	Truncated uint64
	// Restarts counts recoveries that found no usable image and
	// restarted the task from scratch.
	Restarts uint64
	// Recoveries counts store-walking rollbacks.
	Recoveries uint64
	// Depth is the rollback-depth histogram (see DepthBuckets).
	Depth [DepthBuckets]uint64
	// TierWrites counts physical image writes per tier (inserts and
	// demotions) — the occupancy/wear signal per tier.
	TierWrites [MaxTiers]uint64
	// TierRestores counts restore attempts per tier (failed corrupt
	// attempts included).
	TierRestores [MaxTiers]uint64
	// TierRestoreCycles accumulates the min-speed cycles charged for
	// restores per tier.
	TierRestoreCycles [MaxTiers]float64
}

// ObserveDepth records one recovery that examined depth images.
func (s *Stats) ObserveDepth(depth int) {
	s.Recoveries++
	if depth < 1 {
		depth = 1
	}
	b := depth - 1
	if b >= DepthBuckets {
		b = DepthBuckets - 1
	}
	s.Depth[b]++
}
