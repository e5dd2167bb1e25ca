package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records are made durable.
type SyncPolicy int8

const (
	// SyncAlways fsyncs before every commit acknowledges. Concurrent
	// committers group-commit: one fsync covers every record written
	// before it, and committers whose record the fsync already covered
	// return without issuing their own.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when at least Interval has elapsed since the
	// last fsync; a crash loses at most one interval of commits.
	SyncInterval
	// SyncNever leaves fsync to Sync/Close callers; a crash loses every
	// unsynced commit. The write path still orders records correctly.
	SyncNever
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int8(p))
	}
}

// errSync wraps fsync failures so callers can distinguish "the record is
// written and applied but not durable" from "the record never landed".
type errSync struct{ err error }

func (e *errSync) Error() string { return "wal: fsync failed: " + e.err.Error() }
func (e *errSync) Unwrap() error { return e.err }

// IsSyncFailure reports whether err is a durability (fsync) failure that
// happened after the record was written and its apply function ran: the
// in-memory state advanced, only persistence is in doubt.
func IsSyncFailure(err error) bool {
	var se *errSync
	return errors.As(err, &se)
}

// Log is an append-only commit log over one file. Appends serialize on an
// internal mutex that also runs the caller's apply function, so log order
// equals apply order — the property insert replay relies on to reassign
// identical row IDs. After any write or sync error the log is broken:
// every later append fails with the sticky error, because a half-written
// tail makes further appends unreadable anyway.
type Log struct {
	policy   SyncPolicy
	interval time.Duration

	mu     sync.Mutex
	f      File
	buf    []byte //htap:guardedby mu
	broken error  //htap:guardedby mu
	pos    atomic.Int64

	syncMu   sync.Mutex
	synced   int64     //htap:guardedby syncMu
	lastSync time.Time //htap:guardedby syncMu

	appends atomic.Int64
	syncs   atomic.Int64
	grouped atomic.Int64 // appends whose fsync another committer's covered
}

// Open opens (appending) or creates the log file at name. start is the
// byte offset existing contents end at — pass the validPos a Replay
// reported, after truncating the file to it.
func Open(fs FS, name string, policy SyncPolicy, interval time.Duration, start int64) (*Log, error) {
	f, err := fs.Append(name)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", name, err)
	}
	l := &Log{policy: policy, interval: interval, f: f}
	l.pos.Store(start)
	l.synced = start
	return l, nil
}

// Pos returns the record-aligned byte offset of the log's end: every
// record below it has been written and applied.
func (l *Log) Pos() int64 { return l.pos.Load() }

// Stats reports lifetime append, fsync and group-commit counts.
func (l *Log) Stats() (appends, syncs, grouped int64) {
	return l.appends.Load(), l.syncs.Load(), l.grouped.Load()
}

// Append encodes rec, writes it to the log, runs apply (the caller's
// in-memory application of the same write set) while still holding the
// log lock, and then makes the record durable per the sync policy.
//
// Running apply under the lock guarantees log order == apply order, so
// insert replay reassigns exactly the row IDs the live run assigned. The
// record is fully encoded before apply runs — the write set is logged
// before any cell is touched — and the fsync (when the policy wants one)
// happens after, covering this record and any later ones other
// committers wrote in the meantime (group commit).
//
// On a write error, or on a log already broken, apply has NOT run; on a
// sync error apply HAS run and the error satisfies IsSyncFailure.
//
//htap:hotpath
func (l *Log) Append(rec *Record, apply func()) (int64, error) {
	n := frameHeader + payloadSize(rec)
	l.mu.Lock()
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return 0, err
	}
	if cap(l.buf) < n {
		l.grow(n)
	}
	buf := l.buf[:n]
	encodeFrame(buf, rec)
	if _, err := l.f.Write(buf); err != nil {
		werr := l.fail(err)
		l.mu.Unlock()
		return 0, werr
	}
	end := l.pos.Load() + int64(n)
	l.pos.Store(end)
	if apply != nil {
		apply()
	}
	l.mu.Unlock()
	l.appends.Add(1)
	switch l.policy {
	case SyncAlways:
		return end, l.syncTo(end)
	case SyncInterval:
		return end, l.maybeSync(end)
	}
	return end, nil
}

// grow resizes the encode buffer (amortized; off the steady-state path).
//
//htap:coldpath
//htap:locked mu
func (l *Log) grow(n int) {
	l.buf = make([]byte, n+n/2)
}

// fail marks the log broken and returns the wrapped cause.
//
//htap:coldpath
//htap:locked mu
func (l *Log) fail(err error) error {
	l.broken = fmt.Errorf("wal: log broken: %w", err)
	return l.broken
}

// syncTo makes bytes up to at least end durable, group-committing: if a
// concurrent committer's fsync already covered end, return immediately.
func (l *Log) syncTo(end int64) error {
	l.syncMu.Lock()
	if l.synced >= end {
		l.syncMu.Unlock()
		l.grouped.Add(1)
		return nil
	}
	covered := l.pos.Load()
	err := l.f.Sync()
	if err == nil {
		l.synced = covered
		l.lastSync = time.Now()
		l.syncMu.Unlock()
		l.syncs.Add(1)
		return nil
	}
	l.syncMu.Unlock()
	return l.failSync(err)
}

// failSync marks the log broken after a durability failure and wraps the
// cause so IsSyncFailure recognizes it. The sticky error later appends get
// does not satisfy IsSyncFailure: their records never reach the log.
//
//htap:coldpath
func (l *Log) failSync(err error) error {
	se := &errSync{err: err}
	l.mu.Lock()
	if l.broken == nil {
		l.broken = fmt.Errorf("wal: log broken: %w", err)
	}
	l.mu.Unlock()
	return se
}

// maybeSync fsyncs when the policy interval has elapsed.
func (l *Log) maybeSync(end int64) error {
	l.syncMu.Lock()
	due := time.Since(l.lastSync) >= l.interval
	l.syncMu.Unlock()
	if !due {
		return nil
	}
	return l.syncTo(end)
}

// Sync forces an fsync of everything written so far.
func (l *Log) Sync() error {
	return l.syncTo(l.pos.Load())
}

// Close syncs and closes the log file. The log is unusable afterwards.
func (l *Log) Close() error {
	err := l.Sync()
	l.mu.Lock()
	if l.broken == nil {
		l.broken = errors.New("wal: log closed")
	}
	cerr := l.f.Close()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return cerr
}
