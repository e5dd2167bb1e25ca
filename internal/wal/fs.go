// Package wal implements the commit write-ahead log of the durability
// layer: length-prefixed, CRC32C-checksummed records carrying each
// committed transaction's write set, appended under a group-commit lock
// and replayed idempotently above a checkpoint watermark at recovery.
//
// The log talks to storage through the FS interface so tests (and the
// crash harness) can substitute an in-memory filesystem that simulates
// fsync failures, torn tail writes and process death that discards
// unsynced bytes.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrCrash is returned by fault-injecting filesystems when a simulated
// crash point is reached mid-write. Engines treat it like any other I/O
// error; the harness recognizes it to stop driving the schedule.
var ErrCrash = errors.New("wal: simulated crash")

// FS is the filesystem surface the durability layer needs. Paths use
// forward slashes regardless of platform.
type FS interface {
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// Append opens a file for appending, creating it if absent.
	Append(name string) (File, error)
	// Open opens a file for reading.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the entry names directly under dir, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Truncate cuts the named file to size bytes (recovery truncates the
	// log at the first corrupt record before resuming appends).
	Truncate(name string, size int64) error
}

// File is a writable log or checkpoint stream.
type File interface {
	io.Writer
	// Sync makes previously written bytes durable.
	Sync() error
	Close() error
}

// OSFS is the real filesystem rooted at the host's path separator rules.
type OSFS struct{}

func (OSFS) Create(name string) (File, error) {
	return os.Create(filepath.FromSlash(name))
}

func (OSFS) Append(name string) (File, error) {
	return os.OpenFile(filepath.FromSlash(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OSFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(filepath.FromSlash(name))
}

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(filepath.FromSlash(dir))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) MkdirAll(dir string) error {
	return os.MkdirAll(filepath.FromSlash(dir), 0o755)
}

func (OSFS) Truncate(name string, size int64) error {
	return os.Truncate(filepath.FromSlash(name), size)
}

// memFile is one MemFS file: data holds every written byte, synced the
// durable prefix length.
type memFile struct {
	data   []byte
	synced int
}

// MemFS is an in-memory FS with explicit durability semantics: writes
// land in memory, Sync marks the current length durable, and Crash
// produces the filesystem image a process death would leave behind.
// Fault injection covers fsync failure (FailSyncs) and torn writes
// (CrashAfterWrite).
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile //htap:guardedby mu
	dirs  map[string]bool     //htap:guardedby mu

	budget    int64 // remaining write bytes before ErrCrash; -1 unlimited //htap:guardedby mu
	failSyncs int   // Syncs fail once this countdown reaches zero; -1 off //htap:guardedby mu
	written   int64 // lifetime bytes accepted //htap:guardedby mu
}

// NewMemFS returns an empty in-memory filesystem with no faults armed.
func NewMemFS() *MemFS {
	return &MemFS{
		files:     map[string]*memFile{},
		dirs:      map[string]bool{"": true, ".": true},
		budget:    -1,
		failSyncs: -1,
	}
}

// CrashAfterWrite arms a torn-write fault: the filesystem accepts n more
// written bytes, then every write returns ErrCrash — the last write that
// crosses the budget lands partially, producing a torn tail.
func (m *MemFS) CrashAfterWrite(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = n
}

// FailSyncs makes Sync calls fail after n more successful ones.
//
//htap:api the facade's and txn's tests inject fsync failures with it
func (m *MemFS) FailSyncs(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failSyncs = n
}

// BytesWritten reports the lifetime bytes this filesystem accepted.
func (m *MemFS) BytesWritten() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.written
}

// Crash returns the filesystem image a process death would leave behind.
// With keepUnsynced, every written byte survives (the OS flushed its page
// cache before the crash — the model that preserves torn tail writes);
// without it, each file truncates to its last Sync. The original
// filesystem is left untouched, so one crashed image can be recovered
// from repeatedly and deterministically.
func (m *MemFS) Crash(keepUnsynced bool) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := NewMemFS()
	for name, f := range m.files {
		n := f.synced
		if keepUnsynced {
			n = len(f.data)
		}
		img.files[name] = &memFile{data: append([]byte(nil), f.data[:n]...), synced: n}
	}
	for d := range m.dirs {
		img.dirs[d] = true
	}
	return img
}

func (m *MemFS) open(name string, truncate bool) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil || truncate {
		f = &memFile{}
		m.files[name] = f
	}
	return &memHandle{fs: m, f: f}, nil
}

func (m *MemFS) Create(name string) (File, error) { return m.open(name, true) }
func (m *MemFS) Append(name string) (File, error) { return m.open(name, false) }

func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return nil, fmt.Errorf("wal: open %s: %w", name, os.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(append([]byte(nil), f.data...))), nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := strings.TrimSuffix(dir, "/") + "/"
	seen := map[string]bool{}
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			rest := name[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			seen[rest] = true
		}
	}
	for d := range m.dirs {
		if strings.HasPrefix(d, prefix) {
			rest := d[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			seen[rest] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for dir != "" && dir != "." && dir != "/" {
		m.dirs[strings.TrimSuffix(dir, "/")] = true
		i := strings.LastIndexByte(dir, '/')
		if i < 0 {
			break
		}
		dir = dir[:i]
	}
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return fmt.Errorf("wal: truncate %s: %w", name, os.ErrNotExist)
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("wal: truncate %s to %d outside [0, %d]", name, size, len(f.data))
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

// memHandle is an open MemFS file.
type memHandle struct {
	fs *MemFS
	f  *memFile
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	n := len(p)
	if h.fs.budget >= 0 {
		if h.fs.budget == 0 {
			return 0, ErrCrash
		}
		if int64(n) > h.fs.budget {
			n = int(h.fs.budget)
		}
		h.fs.budget -= int64(n)
	}
	h.f.data = append(h.f.data, p[:n]...)
	h.fs.written += int64(n)
	if n < len(p) {
		return n, ErrCrash
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.failSyncs >= 0 {
		if h.fs.failSyncs == 0 {
			return errors.New("wal: simulated fsync failure")
		}
		h.fs.failSyncs--
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error { return nil }
