package experiment

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// captureShards runs a table collecting every shard checkpoint the
// OnShard hook emits, keyed by cell seed, plus the reference table JSON.
func captureShards(t *testing.T, spec Spec, reps, shard int) (map[uint64][]ShardCheckpoint, []byte) {
	t.Helper()
	var mu sync.Mutex
	byCell := make(map[uint64][]ShardCheckpoint)
	r := Runner{
		Reps: reps, Seed: 77, Workers: 3, ShardSize: shard,
		OnShard: func(cellSeed uint64, start, end int, data []byte) {
			mu.Lock()
			byCell[cellSeed] = append(byCell[cellSeed], ShardCheckpoint{Start: start, End: end, Data: data})
			mu.Unlock()
		},
	}
	tbl, err := r.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	return byCell, tableBitsJSON(t, tbl)
}

// TestResumePartialBitIdentical is the crash-recovery core property:
// recovering an arbitrary subset of shard checkpoints and recomputing
// only the gaps yields a table byte-identical to the uninterrupted run,
// with the reps ledger exact — executed + recovered == cells × reps.
func TestResumePartialBitIdentical(t *testing.T) {
	spec := smallSpec(t)
	const reps, shard = 90, 16
	byCell, want := captureShards(t, spec, reps, shard)

	// Keep every other checkpoint — a crash that lost half the journal
	// tail — and resume with a *different* shard size, so the recomputed
	// gaps are carved differently than the original run.
	kept := make(map[uint64][]ShardCheckpoint)
	keptReps := 0
	for seed, cps := range byCell {
		for i, cp := range cps {
			if i%2 == 0 {
				kept[seed] = append(kept[seed], cp)
				keptReps += cp.End - cp.Start
			}
		}
	}
	if keptReps == 0 {
		t.Fatal("no checkpoints kept — test is vacuous")
	}

	reg := telemetry.NewRegistry()
	r := Runner{
		Reps: reps, Seed: 77, Workers: 4, ShardSize: 7,
		Sink:      telemetry.NewRegistrySink(reg, nil),
		Recovered: func(cellSeed uint64) []ShardCheckpoint { return kept[cellSeed] },
	}
	tbl, err := r.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableBitsJSON(t, tbl); !bytes.Equal(got, want) {
		t.Error("resumed table JSON differs from the uninterrupted run")
	}

	cells := len(tbl.Rows) * len(tbl.Rows[0].Cells)
	executed := reg.Counter(MetricReps, "").Value()
	recovered := reg.Counter(MetricRepsRecovered, "").Value()
	if recovered != int64(keptReps) {
		t.Errorf("%s = %d, want %d", MetricRepsRecovered, recovered, keptReps)
	}
	if executed+recovered != int64(cells*reps) {
		t.Errorf("executed %d + recovered %d != cells×reps %d (ledger must be exact)",
			executed, recovered, cells*reps)
	}
}

// TestResumeFullRecovery: every rep comes back from checkpoints; nothing
// executes, the table is still bit-identical, and the ledger is all
// recovery.
func TestResumeFullRecovery(t *testing.T) {
	spec := smallSpec(t)
	const reps, shard = 48, 16
	byCell, want := captureShards(t, spec, reps, shard)

	reg := telemetry.NewRegistry()
	r := Runner{
		Reps: reps, Seed: 77, Workers: 4, ShardSize: shard,
		Sink:      telemetry.NewRegistrySink(reg, nil),
		Recovered: func(cellSeed uint64) []ShardCheckpoint { return byCell[cellSeed] },
	}
	tbl, err := r.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableBitsJSON(t, tbl); !bytes.Equal(got, want) {
		t.Error("fully recovered table JSON differs from the original")
	}
	cells := len(tbl.Rows) * len(tbl.Rows[0].Cells)
	if got := reg.Counter(MetricReps, "").Value(); got != 0 {
		t.Errorf("%s = %d, want 0 (no rep executed)", MetricReps, got)
	}
	if got := reg.Counter(MetricRepsRecovered, "").Value(); got != int64(cells*reps) {
		t.Errorf("%s = %d, want %d", MetricRepsRecovered, got, cells*reps)
	}
	if got := reg.Counter(MetricCellsCompleted, "").Value(); got != int64(cells) {
		t.Errorf("%s = %d, want %d", MetricCellsCompleted, got, cells)
	}
}

// TestResumeRejectsSuspectCheckpoints: corrupted, overlapping,
// duplicated and out-of-range checkpoints are silently recomputed — the
// table stays bit-identical, recovery just buys less.
func TestResumeRejectsSuspectCheckpoints(t *testing.T) {
	spec := smallSpec(t)
	const reps, shard = 60, 20
	byCell, want := captureShards(t, spec, reps, shard)

	poisoned := make(map[uint64][]ShardCheckpoint)
	for seed, cps := range byCell {
		out := append([]ShardCheckpoint(nil), cps...)
		// Corrupt the first checkpoint's trial count: it no longer
		// matches the rep range, so validation must recompute it.
		bad := append([]byte(nil), cps[0].Data...)
		bad[1] ^= 0xFF
		out[0] = ShardCheckpoint{Start: cps[0].Start, End: cps[0].End, Data: bad}
		// A duplicate (overlap) of a good one, and one out of range.
		out = append(out, cps[1], ShardCheckpoint{Start: reps - 5, End: reps + 5, Data: cps[1].Data})
		// A range that disagrees with its payload's trial count.
		out = append(out, ShardCheckpoint{Start: 0, End: reps, Data: cps[1].Data})
		poisoned[seed] = out
	}

	r := Runner{
		Reps: reps, Seed: 77, Workers: 2, ShardSize: shard,
		Recovered: func(cellSeed uint64) []ShardCheckpoint { return poisoned[cellSeed] },
	}
	tbl, err := r.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableBitsJSON(t, tbl); !bytes.Equal(got, want) {
		t.Error("poisoned checkpoints changed the table JSON")
	}
}

// synthCheckpoint builds a structurally valid checkpoint of exactly
// end-start trials with synthetic observations — enough to pass the
// codec and trial-count gates of validRecovered.
func synthCheckpoint(start, end int) ShardCheckpoint {
	var sh stats.Shard
	for i := start; i < end; i++ {
		sh.ObserveRun(uint64(i)+1, true, false, 1.5, 2.5, 0, 1)
	}
	return ShardCheckpoint{Start: start, End: end, Data: sh.AppendBinary(nil)}
}

// TestValidRecoveredEdgeCases pins the validation gauntlet unit by
// unit: overlapping ranges, out-of-range ends, exact duplicate
// (start,end) pairs, inverted and zero-length shards, undecodable
// payloads and trial-count mismatches are all dropped — without
// panicking and without letting any repetition into the kept set
// twice.
func TestValidRecoveredEdgeCases(t *testing.T) {
	const reps = 100
	cps := []ShardCheckpoint{
		synthCheckpoint(10, 20),
		synthCheckpoint(10, 20),  // exact duplicate (start,end) pair
		{Start: 5, End: 5},       // zero-length
		{Start: 7, End: 3},       // inverted range
		synthCheckpoint(90, 100), // flush against the upper bound: kept
		{Start: 95, End: 105, Data: synthCheckpoint(95, 105).Data}, // End > reps
		{Start: -4, End: 6, Data: synthCheckpoint(0, 10).Data},     // negative Start
		synthCheckpoint(15, 30),                                    // overlaps the kept [10,20)
		synthCheckpoint(20, 40),                                    // abuts the kept [10,20): kept
		{Start: 50, End: 60, Data: []byte("not a shard encoding")},
		{Start: 60, End: 70, Data: synthCheckpoint(60, 65).Data}, // claims 10, holds 5
		{Start: 42, End: 44, Data: nil},                          // nil payload
	}
	kept := validRecovered(cps, reps)

	want := [][2]int{{10, 20}, {20, 40}, {90, 100}}
	if len(kept) != len(want) {
		t.Fatalf("kept %d shards, want %d", len(kept), len(want))
	}
	for i, w := range want {
		if kept[i].start != w[0] || kept[i].end != w[1] {
			t.Errorf("kept[%d] = [%d,%d), want [%d,%d)", i, kept[i].start, kept[i].end, w[0], w[1])
		}
	}
	// The structural invariant behind "no double count": the kept set is
	// sorted, disjoint and in range, and each survivor's payload holds
	// exactly its range's trials.
	pos := 0
	for i, k := range kept {
		if k.start < pos || k.end > reps {
			t.Errorf("kept[%d] = [%d,%d) violates disjoint/in-range (pos %d)", i, k.start, k.end, pos)
		}
		if k.shard.Trials() != k.end-k.start {
			t.Errorf("kept[%d] holds %d trials for range [%d,%d)", i, k.shard.Trials(), k.start, k.end)
		}
		pos = k.end
	}
}

// TestValidRecoveredAllSuspect: a checkpoint set with nothing worth
// keeping — every entry malformed one way or another — yields an empty
// kept set, not a panic.
func TestValidRecoveredAllSuspect(t *testing.T) {
	const reps = 50
	cps := []ShardCheckpoint{
		{Start: 0, End: 0},
		{Start: 10, End: 5},
		{Start: -1, End: 4, Data: synthCheckpoint(0, 5).Data},
		{Start: 45, End: 55, Data: synthCheckpoint(45, 55).Data},
		{Start: 0, End: 10, Data: []byte{0xde, 0xad}},
		{Start: 0, End: 10}, // nil payload
	}
	if kept := validRecovered(cps, reps); len(kept) != 0 {
		t.Errorf("kept %d suspect shards, want 0", len(kept))
	}
	if kept := validRecovered(nil, reps); len(kept) != 0 {
		t.Errorf("kept %d shards from a nil set, want 0", len(kept))
	}
}

// TestRecoverIntoGapsExact: RecoverInto's recovered count and gap list
// must partition [0, reps) exactly against the kept shards — the local
// scheduler and the coordinator execute precisely the gaps, so an
// off-by-one here is a silently dropped or double-executed repetition.
func TestRecoverIntoGapsExact(t *testing.T) {
	const reps, size = 100, 25
	var agg stats.Shard
	recovered, shards, gaps := RecoverInto(&agg, []ShardCheckpoint{
		synthCheckpoint(10, 20),
		synthCheckpoint(10, 20), // duplicate: must not double-merge
		synthCheckpoint(40, 60),
		{Start: 55, End: 65, Data: synthCheckpoint(55, 65).Data}, // overlap: dropped
	}, reps, size)

	if recovered != 30 || shards != 2 {
		t.Errorf("recovered = %d reps from %d shards, want 30 from 2", recovered, shards)
	}
	if agg.Trials() != 30 {
		t.Errorf("agg holds %d trials, want 30 (duplicate shard double-merged?)", agg.Trials())
	}
	// Gaps + recovered ranges must tile [0, reps) with no hole and no
	// overlap, and every gap must respect the chunk size.
	covered := make([]int, reps)
	mark := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			covered[i]++
		}
	}
	mark(10, 20)
	mark(40, 60)
	for _, g := range gaps {
		if g.End-g.Start <= 0 || g.End-g.Start > size {
			t.Errorf("gap [%d,%d) has bad size (chunk %d)", g.Start, g.End, size)
		}
		mark(g.Start, g.End)
	}
	for i, n := range covered {
		if n != 1 {
			t.Fatalf("rep %d covered %d times, want exactly once", i, n)
		}
	}
}
