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

// Policy selects the eviction victim when the set is at its retention
// bound. Victim receives the retained images oldest-first and returns
// the index to discard; it must never pick the newest image (the
// rollback anchor) unless it is the only one.
type Policy interface {
	Name() string
	Victim(imgs []Image) int
}

// PolicyByName resolves a Config.Policy string; the empty string is the
// evict-oldest baseline.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", PolicyEvictOldest:
		return evictOldest{}, nil
	case PolicyQuasiGeometric:
		return quasiGeometric{}, nil
	default:
		return nil, fmt.Errorf("store: unknown policy %q (want %q or %q)",
			name, PolicyEvictOldest, PolicyQuasiGeometric)
	}
}

// evictOldest is the baseline: a sliding window of the k newest images.
// Cheap rollbacks stay cheap, but any fault older than k boundaries
// forces a restart from scratch.
type evictOldest struct{}

func (evictOldest) Name() string { return PolicyEvictOldest }

func (evictOldest) Victim(imgs []Image) int { return 0 }

// quasiGeometric is the Bringmann-style spacing policy: among the
// non-newest images it evicts the one whose sequence number has the
// fewest trailing zero bits (ties broken toward the newest). The
// surviving sequence numbers are the highest powers of two below the
// write head plus the head itself — distances into the past grow
// geometrically, so after S stores the set always contains an image
// within a bounded relative gap of any rollback target.
//
// Documented bound (property-tested by TestQuasiGeometricGapBound in
// store_test.go): for k >= 3, consecutive retained sequence numbers
// a < b always satisfy b <= 2a + 1 — the gap into the past at most
// doubles per retained image — and the deepest retained image is within
// a factor-2 window of the oldest power of two the budget can hold.
type quasiGeometric struct{}

func (quasiGeometric) Name() string { return PolicyQuasiGeometric }

func (quasiGeometric) Victim(imgs []Image) int {
	n := len(imgs)
	if n <= 1 {
		return 0
	}
	best, bestLevel := 0, -1
	for i := 0; i < n-1; i++ {
		level := bits.TrailingZeros64(imgs[i].Seq)
		// <= keeps the later (larger-seq) candidate on ties, thinning
		// the recent past before the sparse deep retainers.
		if bestLevel < 0 || level <= bestLevel {
			best, bestLevel = i, level
		}
	}
	return best
}
