// Append-only log stores backing the serve journal. The journal layer
// owns framing and corruption detection; this layer owns bytes and
// durability, behind an interface small enough to fake in tests (memory
// logs with capacity limits and injected write failures) and to swap
// for real hardware-backed stores later — the same separation the
// checkpoint cost model draws between policy and device.
package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/crashpoint"
)

// ErrLogFull is returned by Append when the store's capacity is
// exhausted. Appends are all-or-nothing at the store level only when
// capacity is checked up front; a mid-write I/O failure may still leave
// a torn tail, which the journal's framing tolerates on replay.
var ErrLogFull = errors.New("storage: log capacity exhausted")

// LogStore is an append-only byte log with explicit durability.
type LogStore interface {
	// ReadAll returns the full current contents, for replay.
	ReadAll() ([]byte, error)
	// Append writes p at the tail, returning how many bytes landed.
	// n < len(p) with a non-nil error models a torn write.
	Append(p []byte) (int, error)
	// Sync makes all appended bytes durable.
	Sync() error
	// Size returns the current length in bytes.
	Size() int64
	// Close releases the store; the contents remain.
	Close() error
}

// --- FileLog ---

// FileLog is the production store: an append-only file with fsync
// durability.
type FileLog struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64
}

// OpenFileLog opens (creating if needed) the log file at path.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat log: %w", err)
	}
	return &FileLog{f: f, path: path, size: st.Size()}, nil
}

// Path returns the backing file path.
func (l *FileLog) Path() string { return l.path }

// ReadAll implements LogStore.
func (l *FileLog) ReadAll() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return os.ReadFile(l.path)
}

// Append implements LogStore.
func (l *FileLog) Append(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.f.Write(p)
	l.size += int64(n)
	return n, err
}

// Sync implements LogStore. The crash point sits before the fsync: a
// kill there models power loss with bytes still in the page cache.
func (l *FileLog) Sync() error {
	crashpoint.Hit("journal.fsync")
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

// Truncate cuts the file to size bytes, so the next append lands at
// that offset. Start-up uses it to drop a torn tail before the first
// append of a new life (see serve.ReplayFileLog).
func (l *FileLog) Truncate(size int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(size); err != nil {
		return fmt.Errorf("storage: truncate log: %w", err)
	}
	l.size = size
	return nil
}

// Size implements LogStore.
func (l *FileLog) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close implements LogStore.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// --- MemLog ---

// MemLog is an in-memory LogStore for tests: optional capacity bound
// and an injectable write failure that tears a record mid-write.
type MemLog struct {
	mu  sync.Mutex
	buf []byte
	// Capacity bounds the total size in bytes; negative means unbounded.
	Capacity int
	// FailAfter, when ≥ 0, makes the append that would push the log past
	// this many bytes write only up to the boundary and then fail —
	// a torn record. Reset to -1 (or any negative) to disable.
	FailAfter int
	syncs     int
}

// NewMemLog returns an unbounded, non-failing memory log.
func NewMemLog() *MemLog {
	return &MemLog{Capacity: -1, FailAfter: -1}
}

// ReadAll implements LogStore.
func (m *MemLog) ReadAll() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf...), nil
}

// Append implements LogStore.
func (m *MemLog) Append(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.FailAfter >= 0 && len(m.buf)+len(p) > m.FailAfter {
		keep := m.FailAfter - len(m.buf)
		if keep < 0 {
			keep = 0
		}
		m.buf = append(m.buf, p[:keep]...)
		return keep, errors.New("storage: injected write failure")
	}
	if m.Capacity >= 0 && len(m.buf)+len(p) > m.Capacity {
		return 0, ErrLogFull
	}
	m.buf = append(m.buf, p...)
	return len(p), nil
}

// Sync implements LogStore.
func (m *MemLog) Sync() error {
	crashpoint.Hit("journal.fsync")
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncs++
	return nil
}

// Syncs returns how many times Sync was called.
func (m *MemLog) Syncs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// Size implements LogStore.
func (m *MemLog) Size() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.buf))
}

// Close implements LogStore.
func (m *MemLog) Close() error { return nil }
