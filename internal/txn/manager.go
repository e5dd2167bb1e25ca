package txn

import (
	"errors"
	"fmt"
	"math"
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

// TableRef couples a registered table with its version store and record
// locks. Obtain one from Manager.Register.
type TableRef struct {
	Table    *columnar.Table
	Versions *vm.Store
	Locks    Locks
	// id is the table's index in registration order: the commit log names
	// the table by it (wal.Op.Table).
	id uint16
}

// Manager issues timestamps and tracks active transactions for version
// reclamation. Record locks (TableRef.Locks) resolve conflicts by wait-die
// (§3.2): older requesters wait, younger ones abort, and restarts keep
// their original priority — deadlock-free and starvation-free.
type Manager struct {
	// clock only moves forward. Begin timestamps are drawn under mu, so
	// that a timestamp and its entry in active appear together; commit
	// timestamps are drawn without it.
	clock atomic.Uint64

	mu sync.Mutex
	// open counts the running transactions. It changes only inside the mu
	// sections of start and end, beside the lock's own word, and start
	// raises it before drawing the begin timestamp: a commit that loads it
	// after drawing its own timestamp counts every transaction that drew a
	// smaller one and has not ended (see Txn.Commit).
	open   atomic.Int64
	tables []*TableRef //htap:guardedby mu
	// active holds the begin timestamp of every running transaction, one
	// slot each (Txn.slot); 0 marks a free slot. It grows to the largest
	// number of transactions ever open at once and is scanned, never
	// searched: Begin finds its slot and the watermark in one pass.
	active []uint64 //htap:guardedby mu

	// pool recycles the Txn of RunWithRetry, with its lock, write and
	// insert buffers, so a steady-state transaction allocates none of them.
	pool sync.Pool
	// replay is the Txn Replay loads each logged commit into; its buffers
	// last the whole log.
	replay Txn

	// log, when set, receives every committed write set before it is
	// applied (write-ahead). gate lets the instance switch, and a checkpoint
	// capture riding on it, exclude the window between a commit's log
	// append and its in-memory application, so a snapshot set and a
	// captured (WAL position, table state) pair are always transaction
	// consistent: committers hold it shared, CommitBarrier exclusive.
	log  atomic.Pointer[wal.Log]
	gate sync.RWMutex

	// probe, when set, fires at named internal points: "begin" in start
	// just after the begin timestamp is drawn, with mu held, and "commit"
	// in Commit between flagging the written rows and drawing the commit
	// timestamp. Tests use it to stop a transaction inside those windows;
	// production leaves it nil.
	probe atomic.Pointer[func(point string)]

	commits atomic.Uint64
	aborts  atomic.Uint64
}

// NewManager returns an empty transaction manager.
func NewManager() *Manager {
	return &Manager{}
}

// Register gives a table its version store, record locks and the next
// table id.
func (m *Manager) Register(t *columnar.Table) *TableRef {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.tables) > math.MaxUint16 {
		panic(fmt.Sprintf("txn: table %q is past the %d tables the log can name", t.Schema().Name, math.MaxUint16+1))
	}
	ref := &TableRef{Table: t, Versions: vm.NewStore(), id: uint16(len(m.tables))}
	m.tables = append(m.tables, ref)
	return ref
}

// Now returns the current timestamp without advancing the clock.
func (m *Manager) Now() uint64 { return m.clock.Load() }

// SetWAL attaches a commit log: every later commit appends its write set
// (and commit timestamp) to l before applying it in memory. Attach the
// log before the workload starts; pass nil to detach.
func (m *Manager) SetWAL(l *wal.Log) { m.log.Store(l) }

// WAL returns the attached commit log, or nil.
func (m *Manager) WAL() *wal.Log { return m.log.Load() }

// CommitBarrier runs fn while no commit sits between its log append and
// its in-memory application, and reopens the gate even if fn panics. The
// exchange flips every active instance inside fn; a checkpoint captures
// its WAL position, clock and table watermarks at that cut, making the
// checkpoint image plus WAL-suffix replay equal to the live state.
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
// its begin timestamp. The caller owns the returned Txn; RunWithRetry runs
// its bodies in a recycled one instead.
func (m *Manager) Begin() *Txn {
	t := &Txn{m: m}
	m.start(t, 0)
	return t
}

// start makes t a fresh active transaction, keeping its buffers. The begin
// timestamp is drawn inside the mu section that enters it in the active
// set, so MinActive sees either both or neither. A nonzero priority is an
// earlier wait-die priority t keeps: restarted transactions reuse their
// original timestamp so they age and cannot starve.
//
//htap:hotpath
func (m *Manager) start(t *Txn, priority uint64) {
	m.mu.Lock()
	m.open.Add(1)
	ts := m.clock.Add(1)
	m.fireProbe("begin")
	slot, watermark := -1, ts // ts is the newest begin there is
	for i, b := range m.active {
		if b == 0 {
			if slot < 0 {
				slot = i
			}
		} else if b < watermark {
			watermark = b
		}
	}
	if slot < 0 {
		slot = m.addSlot()
	}
	m.active[slot] = ts
	m.mu.Unlock()

	t.begin, t.priority, t.watermark, t.slot = ts, ts, watermark, slot
	if priority != 0 && priority < ts {
		t.priority = priority
	}
	t.status = statusActive
	t.held, t.writes, t.inserts, t.arena = t.held[:0], t.writes[:0], t.inserts[:0], t.arena[:0]
}

// fireProbe invokes the installed probe, if any.
func (m *Manager) fireProbe(point string) {
	if fn := m.probe.Load(); fn != nil {
		(*fn)(point)
	}
}

// addSlot extends the active set by one free slot and returns its index.
//
//htap:coldpath
//htap:locked mu
func (m *Manager) addSlot() int {
	m.active = append(m.active, 0)
	return len(m.active) - 1
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
	min := m.clock.Load()
	for _, ts := range m.active {
		if ts != 0 && ts < min {
			min = ts
		}
	}
	return min
}

// RunWithRetry executes body in a fresh transaction, retrying on wait-die
// and first-updater conflicts up to maxRetries times. body must be
// idempotent across attempts, and must not retain its *Txn or anything
// obtained from it (an Insert slot) past its return: every attempt runs in
// the same Txn, which goes back to a pool when RunWithRetry returns and is
// then handed to whoever calls next. Restarts keep their first attempt's
// priority (the wait-die anti-starvation rule) and back off exponentially
// after repeated aborts, so a young transaction spins instead of burning
// its retry budget while an older holder drains a wait cascade. It
// returns the number of aborts observed.
func (m *Manager) RunWithRetry(maxRetries int, body func(t *Txn) error) (retries int, err error) {
	t, _ := m.pool.Get().(*Txn)
	if t == nil {
		t = &Txn{m: m}
	}
	retries, err = m.runWithRetry(t, maxRetries, body)
	// Every attempt has ended (committed or aborted, locks released). A
	// body that panics never gets here, and its Txn is simply not reused.
	m.pool.Put(t)
	return retries, err
}

func (m *Manager) runWithRetry(t *Txn, maxRetries int, body func(t *Txn) error) (retries int, err error) {
	var priority uint64
	for attempt := 0; ; attempt++ {
		m.start(t, priority)
		priority = t.priority
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
