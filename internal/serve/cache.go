package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/experiment"
)

// resultCacheCapacity bounds the content-addressed result cache
// (finished grid tables, FIFO eviction).
const resultCacheCapacity = 128

// JobKey is the canonical content hash of a grid job: the fields that
// determine the result bits (table, repetitions, base seed, store
// config) and nothing else — shard size, deadline and retry budget are
// scheduling knobs that cannot change a single output bit, so specs
// differing only there hash identically and share one cached
// computation.
func JobKey(spec JobSpec) string {
	reps := spec.Reps
	if reps <= 0 {
		reps = experiment.DefaultReps
	}
	key := fmt.Appendf(nil, "grid|%s|%d|%d", spec.Table, reps, spec.Seed)
	// The store config changes the result bits, so it is part of the
	// content address; the canonical JSON keeps the hash stable across
	// processes. Nil appends nothing — pre-store keys are unchanged.
	if spec.Store != nil {
		key = append(key, '|')
		key = append(key, spec.Store.CanonicalJSON()...)
	}
	h := sha256.Sum256(key)
	return hex.EncodeToString(h[:])
}

// cacheKey is the result-cache address of a spec: its JobKey for grid
// jobs, "" (never cached) for the other kinds.
func cacheKey(spec JobSpec) string {
	if spec.Kind != JobGrid {
		return ""
	}
	return JobKey(spec)
}

// resultCache maps canonical job hashes to finished result JSON, so an
// identical grid job submitted again is answered in its 202 without a
// queue slot or an executor call. FIFO eviction — the point is dedup of
// identical hot requests, not a general cache. Guarded by the server's
// mutex.
type resultCache struct {
	m     map[string]json.RawMessage
	order []string
}

func (rc *resultCache) put(key string, blob json.RawMessage) {
	if key == "" || len(blob) == 0 {
		return
	}
	if rc.m == nil {
		rc.m = make(map[string]json.RawMessage)
	}
	if _, ok := rc.m[key]; !ok {
		rc.order = append(rc.order, key)
	}
	rc.m[key] = blob
	if len(rc.order) > resultCacheCapacity {
		delete(rc.m, rc.order[0])
		rc.order = rc.order[1:]
	}
}
