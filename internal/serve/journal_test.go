package serve_test

// Unit tests for the durable job journal: framing, tiered fsync
// batching, tolerant replay (truncated tails, CRC mismatches, shard
// validation) and the failure edges of the backing store.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// testShardData builds a structurally valid shard payload covering
// reps [start, end).
func testShardData(t *testing.T, start, end int) []byte {
	t.Helper()
	var sh stats.Shard
	for i := start; i < end; i++ {
		sh.ObserveRun(uint64(i)*0x9e3779b97f4a7c15, true, false, 1.5, 2.5, 1, 0)
	}
	blob, err := sh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// writeSampleJournal appends a representative record mix: one finished
// job with a result, one unfinished grid job with two shard
// checkpoints (one duplicated), one canceled job, and a clean
// shutdown.
func writeSampleJournal(t *testing.T, jl *serve.Journal) (shard1, shard2 []byte) {
	t.Helper()
	gridSpec := serve.JobSpec{Kind: serve.JobGrid, Table: "1a", Reps: 32, Seed: 7}
	singleSpec := serve.JobSpec{Kind: serve.JobSingle, Scheme: "A_D_S", U: 0.78, Lambda: 0.0014, Seed: 3}

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(jl.AppendAccepted("job-000001", singleSpec))
	must(jl.AppendAttempt("job-000001", 1))
	must(jl.AppendFinished("job-000001", serve.StateDone, "", 1, json.RawMessage(`{"time":1.5}`)))

	shard1 = testShardData(t, 0, 16)
	shard2 = testShardData(t, 16, 32)
	must(jl.AppendAccepted("job-000002", gridSpec))
	must(jl.AppendAttempt("job-000002", 1))
	must(jl.AppendShard("job-000002", 42, 0, 16, shard1))
	must(jl.AppendShard("job-000002", 42, 16, 32, shard2))
	must(jl.AppendShard("job-000002", 42, 0, 16, shard1)) // re-executed duplicate

	must(jl.AppendAccepted("job-000003", singleSpec))
	must(jl.AppendFinished("job-000003", serve.StateCanceled, "canceled by client while queued", 0, nil))

	must(jl.AppendShutdown(false, 1))
	return shard1, shard2
}

func TestJournalRoundtrip(t *testing.T) {
	store := storage.NewMemLog()
	jl := serve.NewJournal(store, 1)
	_, shard2 := writeSampleJournal(t, jl)

	data, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rec := serve.ReplayJournal(data)
	if rec.Corrupt != 0 || rec.TruncatedTail {
		t.Fatalf("healthy journal replayed corrupt=%d truncated=%v", rec.Corrupt, rec.TruncatedTail)
	}
	if !rec.CleanShutdown {
		t.Error("clean-shutdown record not detected")
	}
	if len(rec.Jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(rec.Jobs))
	}
	if got := rec.UnfinishedJobs(); got != 1 {
		t.Fatalf("%d unfinished jobs, want 1 (the grid job)", got)
	}

	done := rec.Jobs[0]
	if done.State != serve.StateDone || done.Attempts != 1 || string(done.Result) != `{"time":1.5}` {
		t.Errorf("finished job replayed wrong: %+v", done)
	}
	if done.Shards != nil {
		t.Error("finished job kept shard checkpoints")
	}

	grid := rec.Jobs[1]
	if !grid.Unfinished() || grid.Spec.Table != "1a" {
		t.Fatalf("grid job replayed wrong: %+v", grid)
	}
	cps := grid.Shards[42]
	if len(cps) != 2 {
		t.Fatalf("grid job has %d checkpoints, want 2 (duplicate dropped)", len(cps))
	}
	if cps[1].Start != 16 || cps[1].End != 32 || string(cps[1].Data) != string(shard2) {
		t.Error("checkpoint payload did not survive the roundtrip")
	}

	if rec.Jobs[2].State != serve.StateCanceled {
		t.Errorf("canceled job replayed as %s", rec.Jobs[2].State)
	}
}

func TestJournalReplayTruncatedTail(t *testing.T) {
	store := storage.NewMemLog()
	jl := serve.NewJournal(store, 1)
	writeSampleJournal(t, jl)
	data, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	// Chop off the tail at every length from just-missing-the-shutdown
	// down to a few bytes: replay must never fail, never count the torn
	// frame as corruption, and never lose a record whose frame survived.
	full := serve.ReplayJournal(data)
	for cut := 1; cut < 40; cut++ {
		rec := serve.ReplayJournal(data[:len(data)-cut])
		if !rec.TruncatedTail {
			t.Fatalf("cut %d: torn tail not flagged", cut)
		}
		if rec.CleanShutdown {
			t.Fatalf("cut %d: clean shutdown claimed on a torn journal", cut)
		}
		if rec.Corrupt != 0 {
			t.Fatalf("cut %d: torn tail miscounted as corruption (%d)", cut, rec.Corrupt)
		}
		if len(rec.Jobs) > len(full.Jobs) {
			t.Fatalf("cut %d: truncation invented jobs", cut)
		}
	}
}

// TestJournalNextLifeAfterTornTail is the crash-then-restart sequence:
// whole records, then a frame cut short (a write torn by SIGKILL), then
// a new life that reopens the file, appends and shuts down cleanly.
// Replay stops at the first cut-short frame, so unless start-up cuts
// the torn bytes off first, every record of the new life, the
// clean-shutdown record included, is invisible to every later replay.
func TestJournalNextLifeAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "simd.journal")
	store, err := storage.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	jl := serve.NewJournal(store, 1)
	writeSampleJournal(t, jl)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header promising 64 payload bytes, followed by 10.
	torn := binary.LittleEndian.AppendUint32(nil, 64)
	torn = binary.LittleEndian.AppendUint32(torn, 0xdeadbeef)
	torn = append(torn, make([]byte, 10)...)
	if err := os.WriteFile(path, append(whole, torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := storage.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := serve.ReplayFileLog(store2)
	if err != nil {
		t.Fatal(err)
	}
	if !first.TruncatedTail || first.End != int64(len(whole)) {
		t.Fatalf("replay of the torn journal: truncated=%v end=%d, want true/%d",
			first.TruncatedTail, first.End, len(whole))
	}
	jl2 := serve.NewJournal(store2, 1)
	spec := serve.JobSpec{Kind: serve.JobSingle, Scheme: "A_D_S", U: 0.78, Lambda: 0.0014, Seed: 9}
	if err := jl2.AppendAccepted("job-000004", spec); err != nil {
		t.Fatal(err)
	}
	if err := jl2.AppendFinished("job-000004", serve.StateDone, "", 1, json.RawMessage(`{"time":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := jl2.AppendShutdown(true, 0); err != nil {
		t.Fatal(err)
	}
	if err := jl2.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve.ReplayJournal(data)
	if rec.TruncatedTail || rec.Corrupt != 0 {
		t.Errorf("second replay: truncated=%v corrupt=%d, want a clean journal", rec.TruncatedTail, rec.Corrupt)
	}
	if !rec.CleanShutdown {
		t.Error("the new life's clean-shutdown record is invisible")
	}
	if len(rec.Jobs) != 4 || rec.Jobs[3].ID != "job-000004" || rec.Jobs[3].State != serve.StateDone {
		t.Fatalf("replayed %d jobs: the new life's completed job is missing", len(rec.Jobs))
	}
	if rec.Records != first.Records+3 {
		t.Errorf("replayed %d records, want %d (every record of the new life)", rec.Records, first.Records+3)
	}
}

func TestJournalReplayCorruptRecordSkipped(t *testing.T) {
	store := storage.NewMemLog()
	jl := serve.NewJournal(store, 1)
	writeSampleJournal(t, jl)
	data, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	clean := serve.ReplayJournal(data)

	// Flip one payload byte in the middle of the journal: only that
	// record may be lost; framing resynchronises on the next frame.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF
	rec := serve.ReplayJournal(bad)
	if rec.Corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", rec.Corrupt)
	}
	if rec.Records != clean.Records-1 {
		t.Errorf("valid records = %d, want %d (exactly one lost)", rec.Records, clean.Records-1)
	}
	if !rec.CleanShutdown {
		t.Error("mid-journal corruption destroyed the clean-shutdown marker")
	}

	// The corrupt count surfaces as a metric when a server boots from
	// this recovery — the satellite's journal_corrupt_records contract.
	srv := serve.New(serve.Config{Workers: 1, Recovery: rec})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = srv.Shutdown(ctx)
	}()
	if got := srv.Metrics().Counter("simd_journal_corrupt_records_total", "").Value(); got != 1 {
		t.Errorf("simd_journal_corrupt_records_total = %d, want 1", got)
	}
}

// TestJournalReplayGarbageLength: a frame whose length field is garbage
// leaves no way to resynchronise — replay must stop there (unreadable
// tail) rather than scan gigabytes or panic.
func TestJournalReplayGarbageLength(t *testing.T) {
	store := storage.NewMemLog()
	jl := serve.NewJournal(store, 1)
	writeSampleJournal(t, jl)
	data, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data[:20]...)
	var huge [8]byte
	binary.LittleEndian.PutUint32(huge[0:4], 1<<30)
	bad = append(bad, huge[:]...)
	rec := serve.ReplayJournal(bad)
	if !rec.TruncatedTail {
		t.Error("garbage length not treated as unreadable tail")
	}
}

// TestJournalShardValidationRejectsInventedWork: shard records whose
// payload does not decode to a Shard covering exactly their rep range
// must not be believed.
func TestJournalShardValidationRejectsInventedWork(t *testing.T) {
	store := storage.NewMemLog()
	jl := serve.NewJournal(store, 1)
	spec := serve.JobSpec{Kind: serve.JobGrid, Table: "1a", Reps: 32, Seed: 7}
	if err := jl.AppendAccepted("job-000001", spec); err != nil {
		t.Fatal(err)
	}
	good := testShardData(t, 0, 16)
	cases := []struct {
		name       string
		cell       uint64
		start, end int
		data       []byte
	}{
		{"trials-mismatch", 1, 0, 8, good}, // 16 trials claiming 8 reps
		{"negative-start", 2, -4, 12, good},
		{"empty-range", 3, 5, 5, good},
		{"garbage-bytes", 4, 0, 16, []byte("not a shard")},
		{"empty-bytes", 5, 0, 16, nil},
	}
	for _, c := range cases {
		if err := jl.AppendShard("job-000001", c.cell, c.start, c.end, c.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.AppendShard("job-000001", 9, 0, 16, good); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil { // drain the writer before reading
		t.Fatal(err)
	}

	data, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rec := serve.ReplayJournal(data)
	if len(rec.Jobs) != 1 {
		t.Fatal("job lost")
	}
	shards := rec.Jobs[0].Shards
	total := 0
	for cell, cps := range shards {
		total += len(cps)
		if cell != 9 {
			t.Errorf("invalid shard record for cell %d was believed", cell)
		}
	}
	if total != 1 {
		t.Errorf("%d checkpoints believed, want only the valid one", total)
	}
	if rec.Corrupt != len(cases) {
		t.Errorf("corrupt count = %d, want %d (each invalid shard counted)", rec.Corrupt, len(cases))
	}
}

// waitForJournal polls until cond holds, failing after a deadline —
// progress appends land on the journal's writer goroutine, so tests
// observing them must wait for the write, not assume it.
func waitForJournal(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJournalSyncBatching pins the durability tiers: barrier records
// fsync before the append returns, progress records batch up to
// SyncEvery on the writer goroutine.
func TestJournalSyncBatching(t *testing.T) {
	reg := telemetry.NewRegistry()
	store := storage.NewMemLog()
	jl := serve.NewJournal(store, 3)
	jl.SetSink(telemetry.NewRegistrySink(reg, nil))
	records := reg.Counter("simd_journal_records_total", "")
	spec := serve.JobSpec{Kind: serve.JobSingle, Scheme: "A_D_S", U: 0.78, Lambda: 0.0014}

	if err := jl.AppendAccepted("job-000001", spec); err != nil { // barrier
		t.Fatal(err)
	}
	if got := store.Syncs(); got != 1 {
		t.Fatalf("accepted did not fsync before returning (syncs=%d)", got)
	}
	for i := 1; i <= 2; i++ { // progress: below the batch size
		if err := jl.AppendAttempt("job-000001", i); err != nil {
			t.Fatal(err)
		}
	}
	waitForJournal(t, "2 attempt records", func() bool { return records.Value() == 3 })
	if got := store.Syncs(); got != 1 {
		t.Fatalf("progress records synced early (syncs=%d)", got)
	}
	if err := jl.AppendAttempt("job-000001", 3); err != nil { // fills the batch
		t.Fatal(err)
	}
	waitForJournal(t, "batch fsync", func() bool { return store.Syncs() == 2 })
	if err := jl.AppendFinished("job-000001", serve.StateDone, "", 3, nil); err != nil { // barrier
		t.Fatal(err)
	}
	if got := store.Syncs(); got != 3 {
		t.Fatalf("finished did not fsync before returning (syncs=%d)", got)
	}
}

// TestJournalStoreFailureEdges: a full store (zero capacity) and a
// store that tears a write mid-record both surface as errors and count
// on simd_journal_errors_total — the job proceeds, durability degrades
// loudly.
func TestJournalStoreFailureEdges(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink := telemetry.NewRegistrySink(reg, nil)
	spec := serve.JobSpec{Kind: serve.JobSingle, Scheme: "A_D_S", U: 0.78, Lambda: 0.0014}

	full := storage.NewMemLog()
	full.Capacity = 0
	jl := serve.NewJournal(full, 1)
	jl.SetSink(sink)
	if err := jl.AppendAccepted("job-000001", spec); err == nil {
		t.Error("append to a zero-capacity store succeeded")
	} else if !strings.Contains(err.Error(), "journal append") {
		t.Errorf("unexpected error shape: %v", err)
	}
	if got := reg.Counter("simd_journal_errors_total", "").Value(); got != 1 {
		t.Errorf("journal errors = %d, want 1", got)
	}

	torn := storage.NewMemLog()
	torn.FailAfter = 5 // the write tears after 5 bytes
	jl2 := serve.NewJournal(torn, 1)
	jl2.SetSink(sink)
	if err := jl2.AppendAccepted("job-000002", spec); err == nil {
		t.Error("torn write not surfaced")
	}
	if got := reg.Counter("simd_journal_errors_total", "").Value(); got != 2 {
		t.Errorf("journal errors = %d, want 2", got)
	}
	// The torn prefix is exactly what a crash leaves: replay tolerates it.
	data, err := torn.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 5 {
		t.Fatalf("torn store holds %d bytes, want 5", len(data))
	}
	rec := serve.ReplayJournal(data)
	if !rec.TruncatedTail || len(rec.Jobs) != 0 {
		t.Errorf("torn-prefix replay: truncated=%v jobs=%d, want true/0", rec.TruncatedTail, len(rec.Jobs))
	}
}

// FuzzJournalReplay: arbitrary bytes must never panic the replayer and
// must never invent completed work — every checkpoint it believes has
// to decode to a Shard covering exactly its claimed rep range.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a healthy journal, a torn tail, a corrupt byte and junk.
	store := storage.NewMemLog()
	jl := serve.NewJournal(store, 1)
	var sh stats.Shard
	for i := 0; i < 16; i++ {
		sh.ObserveRun(uint64(i)*0x9e3779b97f4a7c15, true, false, 1.5, 2.5, 1, 0)
	}
	blob, _ := sh.MarshalBinary()
	_ = jl.AppendAccepted("job-000001", serve.JobSpec{Kind: serve.JobGrid, Table: "1a", Reps: 16, Seed: 7})
	_ = jl.AppendShard("job-000001", 42, 0, 16, blob)
	_ = jl.AppendShutdown(true, 0)
	healthy, _ := store.ReadAll()
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-3])
	corrupt := append([]byte(nil), healthy...)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("garbage that is not a journal at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec := serve.ReplayJournal(data) // must not panic
		for i := range rec.Jobs {
			j := &rec.Jobs[i]
			if j.State.Terminal() && j.Shards != nil {
				t.Error("terminal job carries checkpoints")
			}
			for _, cps := range j.Shards {
				for _, cp := range cps {
					if cp.Start < 0 || cp.End <= cp.Start {
						t.Fatalf("believed checkpoint with range [%d,%d)", cp.Start, cp.End)
					}
					var sh stats.Shard
					if err := sh.UnmarshalBinary(cp.Data); err != nil {
						t.Fatalf("believed undecodable checkpoint: %v", err)
					}
					if sh.Trials() != cp.End-cp.Start {
						t.Fatalf("invented work: %d trials for range [%d,%d)", sh.Trials(), cp.Start, cp.End)
					}
				}
			}
		}
	})
}
