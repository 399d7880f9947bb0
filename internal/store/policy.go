// Online checkpoint-set maintenance policies: which image to discard
// when the retained set is at its bound. Policies are pure functions of
// the images' sequence numbers — they never consume randomness, so
// trajectories stay bit-reproducible under rng.Stream.

package store

import (
	"fmt"
	"math/bits"
)

// Policy names accepted in Config.Policy.
const (
	PolicyEvictOldest    = "evict-oldest"
	PolicyQuasiGeometric = "quasi-geometric"
)

// policyKind is a resolved Config.Policy. The set dispatches its victim
// choice on it with a plain comparison: Insert runs once per stored
// checkpoint, where an interface call is measurable. Evict-oldest's
// victim is always image 0; no policy picks the newest image — the
// rollback anchor — unless it is the only one.
type policyKind uint8

const (
	// evictOldest is the baseline: a sliding window of the k newest
	// images. Cheap rollbacks stay cheap, but any fault older than k
	// boundaries forces a restart from scratch.
	evictOldest policyKind = iota
	// quasiGeometric is the Bringmann-style spacing policy (see
	// the quasi-geometric victim below).
	quasiGeometric
)

// policyByName resolves a Config.Policy string; the empty string is the
// evict-oldest baseline.
func policyByName(name string) (policyKind, error) {
	switch name {
	case "", PolicyEvictOldest:
		return evictOldest, nil
	case PolicyQuasiGeometric:
		return quasiGeometric, nil
	default:
		return 0, fmt.Errorf("store: unknown policy %q (want %q or %q)",
			name, PolicyEvictOldest, PolicyQuasiGeometric)
	}
}

// The quasi-geometric victim is the Bringmann-style spacing rule: among
// the non-newest images it evicts the one whose sequence number has
// the fewest trailing zero bits (its level), ties broken toward the
// newest. The surviving sequence numbers are the highest powers of two
// below the write head plus the head itself — distances into the past
// grow geometrically, so after S stores the set always contains an
// image within a bounded relative gap of any rollback target. Set.Insert
// finds it without a scan (see Set.spaced); lowestLevel is the scan it
// falls back on when the deep region loses an image.
//
// Documented bound (property-tested by TestQuasiGeometricGapBound in
// store_test.go): for k >= 3, consecutive retained sequence numbers
// a < b always satisfy b <= 2a + 1 — the gap into the past at most
// doubles per retained image — and the deepest retained image is within
// a factor-2 window of the oldest power of two the budget can hold.

// noLevel is the level of an empty deep region: above every level a
// non-zero sequence number can have.
const noLevel = 64

// level is the quasi-geometric level of a sequence number: its count
// of trailing zero bits.
func level(seq uint64) int { return bits.TrailingZeros64(seq) }

// lowestLevel returns the lowest level among imgs (which must be
// non-empty) and the index of the newest image at it. The scan runs
// newest first, so the first image at the minimum level is the newest,
// and it stops at level 0 (an odd sequence number), below which no
// image can go.
func lowestLevel(imgs []Image) (lvl, idx int) {
	idx = len(imgs) - 1
	lvl = level(imgs[idx].Seq)
	for i := idx - 1; i >= 0 && lvl > 0; i-- {
		if l := level(imgs[i].Seq); l < lvl {
			idx, lvl = i, l
		}
	}
	return lvl, idx
}
