package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func TestFileLogAppendReadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if n, err := l.Append([]byte("hello ")); n != 6 || err != nil {
		t.Fatalf("append: n=%d err=%v", n, err)
	}
	if _, err := l.Append([]byte("world")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if l.Size() != 11 {
		t.Fatalf("size = %d, want 11", l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen: contents persist, appends continue at the tail.
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Size() != 11 {
		t.Fatalf("reopened size = %d, want 11", l2.Size())
	}
	l2.Append([]byte("!"))
	got, err := l2.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if !bytes.Equal(got, []byte("hello world!")) {
		t.Fatalf("contents = %q", got)
	}
}

func TestFileLogTruncate(t *testing.T) {
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append([]byte("whole|torn"))
	if err := l.Truncate(6); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if l.Size() != 6 {
		t.Fatalf("size after truncate = %d, want 6", l.Size())
	}
	// The next append lands at the cut, not after the dropped bytes.
	l.Append([]byte("next"))
	got, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "whole|next" {
		t.Fatalf("contents = %q, want %q", got, "whole|next")
	}
}

func TestOpenFileLogBadPath(t *testing.T) {
	if _, err := OpenFileLog(t.TempDir()); err == nil {
		t.Fatal("opening a directory as a log succeeded")
	}
}

func TestMemLogZeroCapacity(t *testing.T) {
	m := NewMemLog()
	m.Capacity = 0
	n, err := m.Append([]byte("x"))
	if n != 0 || !errors.Is(err, ErrLogFull) {
		t.Fatalf("zero-capacity append: n=%d err=%v, want 0/ErrLogFull", n, err)
	}
	if m.Size() != 0 {
		t.Fatalf("zero-capacity store grew to %d bytes", m.Size())
	}
	// An empty append still fits in zero capacity.
	if _, err := m.Append(nil); err != nil {
		t.Fatalf("empty append: %v", err)
	}
}

func TestMemLogCapacityBoundary(t *testing.T) {
	m := NewMemLog()
	m.Capacity = 4
	if _, err := m.Append([]byte("abcd")); err != nil {
		t.Fatalf("exact-fit append: %v", err)
	}
	if _, err := m.Append([]byte("e")); !errors.Is(err, ErrLogFull) {
		t.Fatalf("over-capacity append: %v, want ErrLogFull", err)
	}
	got, _ := m.ReadAll()
	if !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("contents = %q", got)
	}
}

func TestMemLogTornWrite(t *testing.T) {
	m := NewMemLog()
	m.FailAfter = 3
	n, err := m.Append([]byte("abcdef"))
	if err == nil {
		t.Fatal("write past FailAfter succeeded")
	}
	if n != 3 {
		t.Fatalf("torn write landed %d bytes, want 3", n)
	}
	got, _ := m.ReadAll()
	if !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("contents after tear = %q", got)
	}
	// Later appends keep failing until the injection is cleared.
	if _, err := m.Append([]byte("x")); err == nil {
		t.Fatal("append after tear succeeded")
	}
	m.FailAfter = -1
	if _, err := m.Append([]byte("x")); err != nil {
		t.Fatalf("append after clearing injection: %v", err)
	}
}

func TestMemLogReadAllIsolation(t *testing.T) {
	m := NewMemLog()
	m.Append([]byte("abc"))
	snap, _ := m.ReadAll()
	m.Append([]byte("def"))
	if !bytes.Equal(snap, []byte("abc")) {
		t.Fatalf("snapshot mutated by later append: %q", snap)
	}
	if m.Syncs() != 0 {
		t.Fatal("sync counted without Sync call")
	}
	m.Sync()
	if m.Syncs() != 1 {
		t.Fatal("sync not counted")
	}
}
