package txn

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"elastichtap/internal/columnar"
	"elastichtap/internal/vm"
	"elastichtap/internal/wal"
)

// ErrConflict is returned when first-updater-wins validation fails: the
// record was committed by another transaction after this one began, so
// writing it would violate snapshot isolation.
var ErrConflict = errors.New("txn: write-write conflict (first updater wins)")

// ErrAborted is returned from operations on a transaction that has already
// aborted or committed.
var ErrAborted = errors.New("txn: transaction is not active")

// TableRef couples a registered table with its version store and lock
// namespace. Obtain one from Manager.Register.
type TableRef struct {
	ID       uint32
	Table    *columnar.Table
	Versions *vm.Store
}

// Manager issues timestamps, tracks active transactions for version
// reclamation, and owns the record lock table. Lock conflicts resolve by
// wait-die (§3.2): older requesters wait, younger ones abort, and restarts
// keep their original priority — deadlock-free and starvation-free.
type Manager struct {
	// clock only moves forward. Begin timestamps are drawn under mu, so
	// that a timestamp and its entry in active appear together; commit
	// timestamps are drawn without it.
	clock atomic.Uint64
	locks *LockTable

	mu     sync.Mutex
	tables []*TableRef         //htap:guardedby mu
	active map[uint64]struct{} //htap:guardedby mu

	// log, when set, receives every committed write set before it is
	// applied (write-ahead). gate lets a checkpoint exclude the window
	// between a commit's log append and its in-memory application, so a
	// captured (WAL position, table state) pair is always transaction
	// consistent: committers hold it shared, CommitBarrier exclusive.
	log  atomic.Pointer[wal.Log]
	gate sync.RWMutex

	commits atomic.Uint64
	aborts  atomic.Uint64
}

// NewManager returns an empty transaction manager.
func NewManager() *Manager {
	return &Manager{
		locks:  NewLockTable(),
		active: map[uint64]struct{}{},
	}
}

// Register assigns a lock and version-store namespace to a table.
func (m *Manager) Register(t *columnar.Table) *TableRef {
	m.mu.Lock()
	defer m.mu.Unlock()
	ref := &TableRef{ID: uint32(len(m.tables) + 1), Table: t, Versions: vm.NewStore()}
	m.tables = append(m.tables, ref)
	return ref
}

// Locks exposes the record lock table (the RDE engine shares it for
// instance synchronization).
func (m *Manager) Locks() *LockTable { return m.locks }

// Now returns the current timestamp without advancing the clock.
func (m *Manager) Now() uint64 { return m.clock.Load() }

// SetWAL attaches a commit log: every later commit appends its write set
// (and commit timestamp) to l before applying it in memory. Attach the
// log before the workload starts; pass nil to detach.
func (m *Manager) SetWAL(l *wal.Log) { m.log.Store(l) }

// WAL returns the attached commit log, or nil.
func (m *Manager) WAL() *wal.Log { return m.log.Load() }

// CommitBarrier runs fn while no commit sits between its log append and
// its in-memory application. A checkpoint captures its WAL position,
// clock and table watermarks inside fn, making the checkpoint image plus
// WAL-suffix replay exactly equal to the live state.
func (m *Manager) CommitBarrier(fn func()) {
	m.gate.Lock()
	defer m.gate.Unlock()
	fn()
}

// RestoreState seeds the timestamp clock and commit counter after a
// recovery, so restored and never-crashed engines agree on both.
func (m *Manager) RestoreState(clock, commits uint64) {
	m.clock.Store(clock)
	m.commits.Store(commits)
}

// Commits and Aborts report lifetime counters.
func (m *Manager) Commits() uint64 { return m.commits.Load() }

// Aborts reports the number of aborted transactions.
func (m *Manager) Aborts() uint64 { return m.aborts.Load() }

// Begin starts a snapshot-isolated transaction whose wait-die priority is
// its begin timestamp.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	ts := m.clock.Add(1)
	m.active[ts] = struct{}{}
	watermark := m.minActiveLocked()
	m.mu.Unlock()
	return &Txn{m: m, begin: ts, priority: ts, watermark: watermark, status: statusActive}
}

// BeginWithPriority starts a transaction that reads a fresh snapshot but
// keeps an earlier wait-die priority. Restarted transactions reuse their
// original timestamp so they age and cannot starve — the standard wait-die
// restart rule.
func (m *Manager) BeginWithPriority(priority uint64) *Txn {
	t := m.Begin()
	if priority != 0 && priority < t.priority {
		t.priority = priority
	}
	return t
}

func (m *Manager) finish(t *Txn) {
	m.mu.Lock()
	delete(m.active, t.begin)
	m.mu.Unlock()
}

// MinActive returns the begin timestamp of the oldest active transaction,
// or the current clock when none are active: the version-reclamation
// watermark. No transaction reads as of an earlier timestamp — the active
// ones began at or after it, and every later Begin draws from a clock
// already past it — and it never decreases, so a value read earlier is
// merely conservative.
func (m *Manager) MinActive() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.minActiveLocked()
}

// minActiveLocked is MinActive for callers already inside the mu section.
//
//htap:locked mu
func (m *Manager) minActiveLocked() uint64 {
	min := m.clock.Load()
	for ts := range m.active {
		if ts < min {
			min = ts
		}
	}
	return min
}

type txnStatus int8

const (
	statusActive txnStatus = iota
	statusCommitted
	statusAborted
)

type writeOp struct {
	ref *TableRef
	row int64
	col int
	val int64
}

type insertOp struct {
	ref      *TableRef
	rows     [][]int64
	onCommit func(firstRow int64)
}

// Txn is a snapshot-isolated MV2PL transaction. Reads see the database as
// of the begin timestamp (plus the transaction's own writes); writes take
// exclusive record locks immediately (growing phase) and are applied to
// the active instance at commit.
type Txn struct {
	m        *Manager
	begin    uint64
	priority uint64 // wait-die priority; begin of the first attempt
	// watermark is Manager.MinActive as of Begin, handed to every
	// pre-image push of this transaction.
	watermark uint64
	status    txnStatus

	// held and writes are the lock set and the write set, each kept once,
	// in acquisition and first-write order. Membership is a backward
	// linear probe: a NewOrder touches under 64 cells, a Payment 3 rows.
	held    []LockKey
	writes  []writeOp
	inserts []insertOp
}

// Begin returns the transaction's begin (snapshot) timestamp.
func (t *Txn) Begin() uint64 { return t.begin }

// Priority returns the wait-die priority (smaller = older = wins).
func (t *Txn) Priority() uint64 { return t.priority }

func (t *Txn) lockKey(ref *TableRef, row int64) LockKey {
	return LockKey{Tab: ref.ID, Row: row}
}

// holds reports whether this transaction has taken the lock on k.
func (t *Txn) holds(k LockKey) bool {
	for i := len(t.held) - 1; i >= 0; i-- {
		if t.held[i] == k {
			return true
		}
	}
	return false
}

// written returns the buffered write to (ref, row, col), or nil.
func (t *Txn) written(ref *TableRef, row int64, col int) *writeOp {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if w := &t.writes[i]; w.row == row && w.col == col && w.ref == ref {
			return w
		}
	}
	return nil
}

// Read returns the visible value of (row, col): the transaction's own
// uncommitted write if present, the current in-place value if its newest
// version is within the snapshot, or the version-chain image otherwise.
// ok is false when the row is invisible (inserted after the snapshot).
func (t *Txn) Read(ref *TableRef, row int64, col int) (int64, bool) {
	if t.status != statusActive {
		return 0, false
	}
	if w := t.written(ref, row, col); w != nil {
		return w.val, true
	}
	if t.holds(t.lockKey(ref, row)) {
		// We hold the record lock (validated rowTS <= begin at acquire),
		// so the in-place cells are stable and visible.
		if row >= ref.Table.Rows() {
			return 0, false
		}
		return ref.Table.ReadActive(row, col), true
	}
	return readCommitted(t.m.locks, ref, row, col, t.begin)
}

// readCommitted resolves a snapshot read against storage. The active
// instance is read optimistically: load the row timestamp, the cell, then
// the timestamp again. A row whose record lock is held is mid-commit —
// its cells may be half-written even when the row timestamp looks stable
// — so locked or unstable rows fall back to the version chain, where the
// locker pushed the full-row pre-image before mutating anything. It
// pushes right after acquiring (Txn.lock), so a reader can catch the lock
// held and the chain still short of that image: a row whose newest
// timestamp is within the snapshot but which resolves nowhere is looked
// at again, not reported invisible.
func readCommitted(locks *LockTable, ref *TableRef, row int64, col int, asOf uint64) (int64, bool) {
	if row >= ref.Table.Rows() {
		return 0, false
	}
	k := LockKey{Tab: ref.ID, Row: row}
	for {
		for attempt := 0; attempt < 3; attempt++ {
			ts1 := ref.Table.RowTS(row)
			if ts1 > asOf {
				break
			}
			if locks.Held(k) {
				continue
			}
			v := ref.Table.ReadActive(row, col)
			ts2 := ref.Table.RowTS(row)
			if ts1 == ts2 && !locks.Held(k) {
				return v, true
			}
		}
		// Whoever moved the row past the snapshot pushed its pre-image
		// before applying, so a chain lookup made after seeing the newer
		// timestamp is final; one made before it is not.
		newer := ref.Table.RowTS(row) > asOf
		if img, ok := ref.Versions.ReadAsOf(row, asOf); ok {
			return img[col], true
		}
		if newer {
			return 0, false
		}
		runtime.Gosched()
	}
}

// Write buffers a cell write after taking the record's exclusive lock and
// validating first-updater-wins. Returns ErrDie (caller should abort and
// retry) or ErrConflict (snapshot-isolation write conflict).
func (t *Txn) Write(ref *TableRef, row int64, col int, val int64) error {
	if err := t.lock(ref, row); err != nil {
		return err
	}
	t.buffer(ref, row, col, val)
	return nil
}

// buffer records a write to a row this transaction has locked.
func (t *Txn) buffer(ref *TableRef, row int64, col int, val int64) {
	if w := t.written(ref, row, col); w != nil {
		w.val = val
		return
	}
	t.writes = append(t.writes, writeOp{ref: ref, row: row, col: col, val: val})
}

// lock takes the record's exclusive lock for this transaction, once:
// acquire under wait-die, validate first-updater-wins, push the pre-image.
func (t *Txn) lock(ref *TableRef, row int64) error {
	if t.status != statusActive {
		return ErrAborted
	}
	k := t.lockKey(ref, row)
	if t.holds(k) {
		return nil
	}
	if err := t.m.locks.Acquire(k, t.priority); err != nil {
		return err
	}
	t.held = append(t.held, k)
	// First-updater-wins: a version committed after our snapshot means
	// a concurrent writer already won.
	if ref.Table.RowTS(row) > t.begin {
		return ErrConflict
	}
	// Push the full-row pre-image NOW, not at commit: concurrent
	// snapshot readers treat locked rows as mid-commit and resolve
	// through the version chain, so the chain must already hold the
	// pre-lock image. If this transaction aborts, the pushed version
	// duplicates the live row (same timestamp, same values) — harmless,
	// and cut like any other by a later push.
	width := len(ref.Table.Schema().Columns)
	img := make([]int64, width)
	for c := 0; c < width; c++ {
		img[c] = ref.Table.ReadActive(row, c)
	}
	ref.Versions.Push(row, ref.Table.RowTS(row), img, t.watermark)
	return nil
}

// WriteFunc applies fn to the visible value and writes the result, a
// convenience for read-modify-write cells (stock levels, order counters).
// It locks the record first and reads under the lock: a snapshot read
// taken before locking can miss a commit whose timestamp equals this
// transaction's begin but whose cells were still being applied — such a
// row resolves through its pre-image — and the first-updater check
// (RowTS > begin) lets exactly that commit through, so fn(snapshot value)
// would overwrite its update. Under the lock the in-place cell is the
// newest committed value, and the check has vouched that it belongs to
// this snapshot; a row committed after the snapshot is a conflict, to be
// retried on a newer one.
func (t *Txn) WriteFunc(ref *TableRef, row int64, col int, fn func(old int64) int64) error {
	if row >= ref.Table.Rows() {
		return fmt.Errorf("txn: row %d of table %q invisible to snapshot %d",
			row, ref.Table.Schema().Name, t.begin)
	}
	if err := t.lock(ref, row); err != nil {
		return err
	}
	v, _ := t.Read(ref, row, col) // our own buffered write, or the cell in place
	t.buffer(ref, row, col, fn(v))
	return nil
}

// Insert buffers whole-row inserts; rows are appended to both instances at
// commit and onCommit (may be nil) receives the first assigned row ID so
// the caller can maintain primary-key indexes.
func (t *Txn) Insert(ref *TableRef, rows [][]int64, onCommit func(firstRow int64)) error {
	if t.status != statusActive {
		return ErrAborted
	}
	t.inserts = append(t.inserts, insertOp{ref: ref, rows: rows, onCommit: onCommit})
	return nil
}

// Commit applies the write set to the active instances (the full-row
// pre-images went to the delta store when the locks were taken), appends
// inserts to both instances, and releases all locks. With a WAL attached
// (Manager.SetWAL) the write set is appended to the log first; the
// in-memory application runs under the log's lock, so log order equals
// apply order and insert replay reassigns identical row IDs.
//
// A nil return means committed and durable per the log's sync policy. An
// error satisfying wal.IsSyncFailure means the commit DID apply in
// memory — reads will see it — but the fsync failed, so it may not
// survive a crash; the log refuses further appends. Any other log error
// means the commit never applied and the transaction aborted.
func (t *Txn) Commit() error {
	if t.status != statusActive {
		return ErrAborted
	}
	t.m.gate.RLock()
	commitTS := t.m.clock.Add(1)

	var syncErr error
	if log := t.m.log.Load(); log != nil {
		// Read-only transactions log a zero-op record too: recovery then
		// reconstructs the exact clock and commit count, not just state.
		if _, err := log.Append(t.record(commitTS), func() { t.apply(commitTS) }); err != nil {
			if !wal.IsSyncFailure(err) {
				// The record never reached the log and apply did not run:
				// nothing committed. Abort.
				t.m.gate.RUnlock()
				t.releaseAll()
				t.status = statusAborted
				t.m.finish(t)
				t.m.aborts.Add(1)
				return fmt.Errorf("txn: commit log append: %w", err)
			}
			syncErr = err
		}
	} else {
		t.apply(commitTS)
	}
	t.m.gate.RUnlock()
	t.releaseAll()
	t.status = statusCommitted
	t.m.finish(t)
	t.m.commits.Add(1)
	return syncErr
}

// apply writes the write set in place, then appends the inserts. Tables
// are taken in first-touch order and each is pinned once, for ALL of this
// transaction's writes to it, so a concurrent instance switch cannot split
// a row's (or a table's) cells across the twins. Pre-images were pushed at
// lock time, so snapshot readers can already resolve around these rows.
func (t *Txn) apply(commitTS uint64) {
	for i := range t.writes {
		ref := t.writes[i].ref
		if t.wroteBefore(i, ref) {
			continue // applied under the pin of its first write
		}
		ref.Table.BeginApply()
		for _, w := range t.writes[i:] {
			if w.ref == ref {
				ref.Table.UpdateCell(w.row, w.col, w.val, commitTS)
			}
		}
		ref.Table.EndApply()
	}
	for _, ins := range t.inserts {
		first := ins.ref.Table.AppendRows(ins.rows, commitTS)
		if ins.onCommit != nil {
			ins.onCommit(first)
		}
	}
}

// wroteBefore reports whether a write earlier than writes[i] is to ref.
func (t *Txn) wroteBefore(i int, ref *TableRef) bool {
	for j := i - 1; j >= 0; j-- {
		if t.writes[j].ref == ref {
			return true
		}
	}
	return false
}

// record builds the WAL record for this transaction's write set.
func (t *Txn) record(commitTS uint64) *wal.Record {
	rec := &wal.Record{TxnID: t.begin, CommitTS: commitTS}
	rec.Ops = make([]wal.Op, 0, len(t.writes)+len(t.inserts))
	for _, w := range t.writes {
		rec.Ops = append(rec.Ops, wal.Op{
			Kind:  wal.OpUpdate,
			Table: w.ref.Table.Schema().Name,
			Row:   w.row,
			Col:   uint32(w.col),
			Val:   w.val,
		})
	}
	for _, ins := range t.inserts {
		if len(ins.rows) == 0 {
			continue
		}
		width := len(ins.rows[0])
		vals := make([]int64, 0, len(ins.rows)*width)
		for _, r := range ins.rows {
			vals = append(vals, r...)
		}
		rec.Ops = append(rec.Ops, wal.Op{
			Kind:  wal.OpInsert,
			Table: ins.ref.Table.Schema().Name,
			NRows: len(ins.rows),
			Width: width,
			Vals:  vals,
		})
	}
	return rec
}

// Abort drops buffered work and releases all locks.
func (t *Txn) Abort() {
	if t.status != statusActive {
		return
	}
	t.releaseAll()
	t.status = statusAborted
	t.m.finish(t)
	t.m.aborts.Add(1)
}

func (t *Txn) releaseAll() {
	for _, k := range t.held {
		t.m.locks.Release(k)
	}
	t.held = nil
}

// RunWithRetry executes body in a fresh transaction, retrying on wait-die
// and first-updater conflicts up to maxRetries times. body must be
// idempotent across attempts. Restarts keep their first attempt's
// priority (the wait-die anti-starvation rule) and back off exponentially
// after repeated aborts, so a young transaction spins instead of burning
// its retry budget while an older holder drains a wait cascade. It
// returns the number of aborts observed.
func (m *Manager) RunWithRetry(maxRetries int, body func(t *Txn) error) (retries int, err error) {
	var priority uint64
	for attempt := 0; ; attempt++ {
		t := m.BeginWithPriority(priority)
		if attempt == 0 {
			priority = t.Priority()
		}
		err = body(t)
		if err == nil {
			err = t.Commit()
		}
		if err == nil {
			return attempt, nil
		}
		t.Abort()
		if !errors.Is(err, ErrDie) && !errors.Is(err, ErrConflict) {
			return attempt, err
		}
		if attempt >= maxRetries {
			return attempt, fmt.Errorf("txn: giving up after %d retries: %w", attempt, err)
		}
		if attempt >= 8 {
			shift := attempt - 8
			if shift > 10 {
				shift = 10
			}
			time.Sleep(time.Microsecond << shift)
		}
	}
}
