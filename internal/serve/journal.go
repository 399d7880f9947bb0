// The durable write-ahead job journal: the single source of truth for
// what the server accepted, attempted, checkpointed and finished —
// superseding the drain manifest. Records are CRC-framed JSON over a
// pluggable append-only store (storage.LogStore):
//
//	u32 LE payload length | u32 LE CRC-32C of payload | payload JSON
//
// Durability is tiered: ledger records (accepted, finished, shutdown)
// fsync immediately — losing one would silently drop or resurrect a
// job — while progress records (attempt, shard) group-commit: the
// writer fsyncs a non-empty batch at most syncInterval after its first
// record, and no later than every SyncEvery records. Losing a progress
// batch only costs recomputation, never correctness, so its fsync rate
// can stay constant no matter how fast shards complete.
//
// All records flow through one writer goroutine, so the marshal, write
// and fsync cost sits off the simulation workers' critical path: a
// progress append is a channel hand-off (its buffer is owned by the
// journal from that point), while a barrier append blocks until its
// record — and everything queued before it, preserving replay order —
// is on disk. Write and sync failures on the async path are counted,
// remembered, and surfaced on the next append or Close.
//
// Replay is tolerant by construction: a truncated tail (torn final
// write) ends the scan cleanly, a CRC or JSON mismatch skips just that
// record and counts it, and shard checkpoints are structurally
// validated before they are believed — arbitrary journal bytes can
// slow recovery down but can never invent completed work.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// maxRecordLen bounds a single journal record; anything claiming to be
// larger is corruption, not data.
const maxRecordLen = 64 << 20

// DefaultSyncEvery is the progress-record fsync batch cap. It bounds
// how much may sit in the page cache, not the usual fsync cadence —
// that is syncInterval, which group-commits progress records on a
// timer so fsync latency amortises over many shards.
const DefaultSyncEvery = 4096

// syncInterval is the group-commit period for progress records: the
// writer fsyncs a non-empty batch at most this long after its first
// record, so a crash loses at most this much banked progress (plus
// whatever a barrier had not yet covered) — and the fsync rate stays
// constant no matter how fast shards complete.
const syncInterval = 250 * time.Millisecond

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record types.
const (
	recAccepted = "accepted"
	recAttempt  = "attempt"
	recShard    = "shard"
	recFinished = "finished"
	recShutdown = "journal_clean_shutdown"
)

// journalRecord is the on-disk payload of every record type; unused
// fields are omitted per type.
type journalRecord struct {
	Type string `json:"type"`
	ID   string `json:"id,omitempty"`

	// accepted
	Spec *JobSpec `json:"spec,omitempty"`

	// attempt
	Attempt int `json:"attempt,omitempty"`

	// shard: cell is the derived cell seed, Data the stats.Shard binary
	// encoding of reps [Start, End).
	Cell  uint64 `json:"cell,omitempty"`
	Start int    `json:"start,omitempty"`
	End   int    `json:"end,omitempty"`
	Data  []byte `json:"data,omitempty"`

	// finished
	State    JobState        `json:"state,omitempty"`
	Error    string          `json:"error,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`

	// shutdown
	Drained    *bool `json:"drained,omitempty"`
	Unfinished int   `json:"unfinished,omitempty"`
}

// Journal appends framed records to a LogStore through a single writer
// goroutine. Safe for concurrent use: appends from any goroutine are
// ordered by their channel sends, so the store sees whole frames in
// submission order.
type Journal struct {
	store     storage.LogStore
	syncEvery int

	// mu guards sink and the sticky async error.
	mu   sync.Mutex
	sink telemetry.Sink
	// err is the most recent async write/sync failure, surfaced on the
	// next append (progress appends cannot fail synchronously).
	err error

	// closeMu serialises channel sends against Close: senders hold the
	// read side, Close takes the write side before closing ch.
	closeMu sync.RWMutex
	closed  bool
	ch      chan jreq
	done    chan struct{}
}

// jreq is one queued record; a non-nil ack marks a barrier, answered
// only after the record and everything before it are fsynced.
type jreq struct {
	rec journalRecord
	ack chan error
}

// NewJournal wraps store and starts its writer. syncEvery bounds how
// many progress records may ride in the page cache before an fsync;
// ≤ 0 means DefaultSyncEvery, 1 means every record is a barrier.
func NewJournal(store storage.LogStore, syncEvery int) *Journal {
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}
	j := &Journal{
		store: store, syncEvery: syncEvery,
		ch:   make(chan jreq, 512),
		done: make(chan struct{}),
	}
	go j.writer()
	return j
}

// SetSink routes the journal's own accounting (records, bytes, syncs,
// errors) through a telemetry sink. May be nil.
func (j *Journal) SetSink(s telemetry.Sink) {
	j.mu.Lock()
	j.sink = s
	j.mu.Unlock()
}

// Size returns the store's current length (queued records not yet
// written are not included).
func (j *Journal) Size() int64 { return j.store.Size() }

// Close drains the writer, syncs and closes the store, and returns any
// async failure still unreported.
func (j *Journal) Close() error {
	j.closeMu.Lock()
	if j.closed {
		j.closeMu.Unlock()
		return nil
	}
	j.closed = true
	close(j.ch)
	j.closeMu.Unlock()
	<-j.done

	j.mu.Lock()
	err := j.err
	j.err = nil
	j.mu.Unlock()
	if serr := j.store.Sync(); serr != nil && err == nil {
		err = serr
	}
	if cerr := j.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// writer is the journal's single writer goroutine: it owns all store
// appends, group-committing progress fsyncs (per syncInterval, capped
// at syncEvery records) and answering barriers once their prefix of
// the journal is durable.
func (j *Journal) writer() {
	defer close(j.done)
	timer := time.NewTimer(syncInterval)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	pending := 0 // records written since the last fsync
	armed := false
	disarm := func() {
		if armed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		armed = false
	}
	for {
		select {
		case req, ok := <-j.ch:
			if !ok {
				return
			}
			err := j.write(req.rec)
			if err == nil {
				pending++
			}
			if req.ack != nil || pending >= j.syncEvery {
				if serr := j.sync(); serr != nil && err == nil {
					err = serr
				}
				pending = 0
				disarm()
			} else if pending > 0 && !armed {
				timer.Reset(syncInterval)
				armed = true
			}
			if err != nil && req.ack == nil {
				j.mu.Lock()
				j.err = err
				j.mu.Unlock()
			}
			if req.ack != nil {
				req.ack <- err
			}
		case <-timer.C:
			armed = false
			if pending == 0 {
				continue
			}
			if err := j.sync(); err != nil {
				j.mu.Lock()
				j.err = err
				j.mu.Unlock()
			}
			pending = 0
		}
	}
}

// write marshals, frames and appends one record. Runs on the writer
// goroutine only.
func (j *Journal) write(rec journalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		j.count(metricJournalErrors, 1)
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	buf := frame(payload)
	if _, err := j.store.Append(buf); err != nil {
		j.count(metricJournalErrors, 1)
		return fmt.Errorf("serve: journal append: %w", err)
	}
	j.count(metricJournalRecords, 1)
	j.count(metricJournalBytes, int64(len(buf)))
	return nil
}

// sync flushes the store. Runs on the writer goroutine only.
func (j *Journal) sync() error {
	if err := j.store.Sync(); err != nil {
		j.count(metricJournalErrors, 1)
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	j.count(metricJournalSyncs, 1)
	return nil
}

// frame wraps a payload in the length+CRC envelope.
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, crcTable))
	copy(out[8:], payload)
	return out
}

// append queues one record for the writer. A barrier blocks until the
// record (and every record queued before it) is fsynced and returns
// that write's own error; a progress append returns immediately,
// reporting at most a previous async failure.
func (j *Journal) append(rec journalRecord, barrier bool) error {
	j.closeMu.RLock()
	if j.closed {
		j.closeMu.RUnlock()
		return fmt.Errorf("serve: journal closed")
	}
	var ack chan error
	if barrier {
		ack = make(chan error, 1)
	}
	j.ch <- jreq{rec: rec, ack: ack}
	j.closeMu.RUnlock()
	if barrier {
		return <-ack
	}
	j.mu.Lock()
	err := j.err
	j.err = nil
	j.mu.Unlock()
	return err
}

// count reports through the sink when one is attached.
func (j *Journal) count(name string, delta int64) {
	j.mu.Lock()
	s := j.sink
	j.mu.Unlock()
	if s != nil {
		s.Count(name, delta)
	}
}

// AppendAccepted records a job admission (barrier: an accepted job must
// survive the crash that follows the 202).
func (j *Journal) AppendAccepted(id string, spec JobSpec) error {
	return j.append(journalRecord{Type: recAccepted, ID: id, Spec: &spec}, true)
}

// AppendAttempt records the start of attempt n (1-based) of a job.
func (j *Journal) AppendAttempt(id string, attempt int) error {
	return j.append(journalRecord{Type: recAttempt, ID: id, Attempt: attempt}, false)
}

// AppendShard records one completed shard checkpoint.
func (j *Journal) AppendShard(id string, cell uint64, start, end int, data []byte) error {
	return j.append(journalRecord{
		Type: recShard, ID: id, Cell: cell, Start: start, End: end, Data: data,
	}, false)
}

// AppendFinished records a job's clean terminal outcome (barrier).
// Jobs aborted by shutdown get no finished record — that absence is
// what makes them resume on the next boot.
func (j *Journal) AppendFinished(id string, state JobState, errMsg string, attempts int, result json.RawMessage) error {
	return j.append(journalRecord{
		Type: recFinished, ID: id, State: state, Error: errMsg,
		Attempts: attempts, Result: result,
	}, true)
}

// AppendShutdown records a clean shutdown checkpoint (barrier): drained
// reports whether the backlog finished before the drain deadline,
// unfinished how many jobs will resume on the next boot.
func (j *Journal) AppendShutdown(drained bool, unfinished int) error {
	return j.append(journalRecord{
		Type: recShutdown, Drained: &drained, Unfinished: unfinished,
	}, true)
}

// --- Replay ---

// RecoveredJob is one job reconstructed from the journal.
type RecoveredJob struct {
	ID       string
	Spec     JobSpec
	State    JobState // terminal state, or StateQueued for unfinished jobs
	Attempts int
	Error    string
	Result   json.RawMessage
	// Shards holds the validated shard checkpoints of an unfinished grid
	// job, keyed by cell seed.
	Shards map[uint64][]experiment.ShardCheckpoint
}

// Unfinished reports whether the job needs to run (again) after replay.
func (r *RecoveredJob) Unfinished() bool { return !r.State.Terminal() }

// Recovery is the outcome of replaying a journal.
type Recovery struct {
	// Jobs in admission order.
	Jobs []RecoveredJob
	// CleanShutdown is true when the last valid record is a shutdown
	// checkpoint — the previous process exited through Shutdown, not a
	// crash.
	CleanShutdown bool
	// Records and Corrupt count valid and skipped records; Bytes is the
	// journal size scanned.
	Records, Corrupt int
	Bytes            int64
	// TruncatedTail is true when the journal ended mid-frame (torn final
	// write) — expected after a crash, tolerated silently.
	TruncatedTail bool
	// End is the offset just past the last whole frame. Bytes beyond it
	// are the torn tail: replay can never read past them, so they must
	// be cut before the next append (ReplayFileLog).
	End int64
	// ReplayDuration is the wall time of the replay scan.
	ReplayDuration time.Duration
}

// UnfinishedJobs counts jobs that will resume.
func (r *Recovery) UnfinishedJobs() int {
	n := 0
	for i := range r.Jobs {
		if r.Jobs[i].Unfinished() {
			n++
		}
	}
	return n
}

// ReplayJournal scans raw journal bytes into a Recovery. It never fails
// and never panics, whatever the input: framing errors end the scan
// (truncated tail) or skip the record (CRC/JSON mismatch), and shard
// payloads are validated against the stats codec before they are kept,
// so replay can lose progress but cannot invent completed work.
func ReplayJournal(data []byte) *Recovery {
	t0 := time.Now()
	rec := &Recovery{Bytes: int64(len(data))}
	byID := make(map[string]int)
	type shardKey struct {
		cell       uint64
		start, end int
	}
	seen := make(map[string]map[shardKey]bool)

	off := 0
	for off < len(data) {
		if len(data)-off < 8 {
			rec.TruncatedTail = true
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n > maxRecordLen {
			// A garbage length gives no way to find the next frame:
			// treat everything from here as an unreadable tail.
			rec.Corrupt++
			rec.TruncatedTail = true
			break
		}
		if len(data)-off-8 < n {
			rec.TruncatedTail = true
			break
		}
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		payload := data[off+8 : off+8+n]
		off += 8 + n
		if crc32.Checksum(payload, crcTable) != wantCRC {
			rec.Corrupt++
			rec.CleanShutdown = false
			continue
		}
		var jr journalRecord
		if err := json.Unmarshal(payload, &jr); err != nil {
			rec.Corrupt++
			rec.CleanShutdown = false
			continue
		}
		rec.Records++
		rec.CleanShutdown = false

		switch jr.Type {
		case recAccepted:
			if jr.ID == "" || jr.Spec == nil {
				rec.Corrupt++
				rec.Records--
				continue
			}
			if _, ok := byID[jr.ID]; ok {
				continue // duplicate admission (e.g. a replayed migration)
			}
			byID[jr.ID] = len(rec.Jobs)
			rec.Jobs = append(rec.Jobs, RecoveredJob{
				ID: jr.ID, Spec: *jr.Spec, State: StateQueued,
			})
		case recAttempt:
			if i, ok := byID[jr.ID]; ok && jr.Attempt > rec.Jobs[i].Attempts {
				rec.Jobs[i].Attempts = jr.Attempt
			}
		case recShard:
			i, ok := byID[jr.ID]
			if !ok || rec.Jobs[i].State.Terminal() {
				continue
			}
			if !validShardRecord(jr) {
				rec.Corrupt++
				continue
			}
			k := shardKey{cell: jr.Cell, start: jr.Start, end: jr.End}
			if seen[jr.ID] == nil {
				seen[jr.ID] = make(map[shardKey]bool)
			}
			if seen[jr.ID][k] {
				continue // re-executed after a mid-journal crash: keep one
			}
			seen[jr.ID][k] = true
			j := &rec.Jobs[i]
			if j.Shards == nil {
				j.Shards = make(map[uint64][]experiment.ShardCheckpoint)
			}
			j.Shards[jr.Cell] = append(j.Shards[jr.Cell], experiment.ShardCheckpoint{
				Start: jr.Start, End: jr.End, Data: jr.Data,
			})
		case recFinished:
			if i, ok := byID[jr.ID]; ok && jr.State.Terminal() {
				j := &rec.Jobs[i]
				j.State = jr.State
				j.Error = jr.Error
				if jr.Attempts > j.Attempts {
					j.Attempts = jr.Attempts
				}
				j.Result = jr.Result
				j.Shards = nil // checkpoints of a finished job are dead weight
			}
		case recShutdown:
			rec.CleanShutdown = true
		default:
			// Unknown record type: a newer writer. Skip, don't fail.
		}
	}
	rec.End = int64(off)
	rec.ReplayDuration = time.Since(t0)
	return rec
}

// ReplayFileLog replays the journal in l and cuts any torn tail off the
// file, so this life's appends follow the last whole frame instead of
// bytes that end every future replay. Call it before the first append.
func ReplayFileLog(l *storage.FileLog) (*Recovery, error) {
	data, err := l.ReadAll()
	if err != nil {
		return nil, err
	}
	rec := ReplayJournal(data)
	if rec.End < rec.Bytes {
		if err := l.Truncate(rec.End); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// validShardRecord structurally validates a shard record's payload:
// the range is sane and the bytes decode to a Shard whose trial count
// matches the range — the "never invent completed shards" gate.
func validShardRecord(jr journalRecord) bool {
	if jr.Start < 0 || jr.End <= jr.Start {
		return false
	}
	var sh stats.Shard
	if err := sh.UnmarshalBinary(jr.Data); err != nil {
		return false
	}
	return sh.Trials() == jr.End-jr.Start
}
