package txn

import (
	"fmt"
	"runtime"

	"elastichtap/internal/columnar"
	"elastichtap/internal/wal"
)

type txnStatus int8

const (
	statusActive txnStatus = iota
	statusCommitted
	statusAborted
)

type heldLock struct {
	ref *TableRef
	row int64
}

type writeOp struct {
	ref *TableRef
	row int64
	col int
	val int64
}

// insertOp is one Insert call: whole rows of ref's table held in the
// transaction's arena as arena[lo:hi], width words each.
type insertOp struct {
	ref      *TableRef
	lo, hi   int
	width    int
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
	slot      int // index of begin in Manager.active
	status    txnStatus

	// held and writes are the lock set and the write set, each kept once,
	// in acquisition and first-write order. Membership is a backward
	// linear probe: a NewOrder touches under 64 cells, a Payment 3 rows.
	held    []heldLock
	writes  []writeOp
	inserts []insertOp
	// arena holds every inserted row of the transaction, row-major, in
	// Insert order; it is what the commit log records and what the apply
	// appends, so an inserted row is written once by the body and never
	// copied again.
	arena []int64

	// Scratch kept across the transactions a recycled Txn runs: the
	// pre-image gather buffer, one table's writes as UpdateCells takes
	// them, and the commit record.
	img   []int64
	cells []columnar.Cell
	rec   wal.Record
}

// holds reports whether this transaction has taken the lock on (ref, row).
func (t *Txn) holds(ref *TableRef, row int64) bool {
	for i := len(t.held) - 1; i >= 0; i-- {
		if t.held[i] == (heldLock{ref, row}) {
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

// grow doubles whichever of the lock, write and insert lists is full.
//
//htap:coldpath
func (t *Txn) grow() {
	if len(t.held) == cap(t.held) {
		t.held = append(t.held, heldLock{})[:len(t.held)]
	}
	if len(t.writes) == cap(t.writes) {
		t.writes = append(t.writes, writeOp{})[:len(t.writes)]
	}
	if len(t.inserts) == cap(t.inserts) {
		t.inserts = append(t.inserts, insertOp{})[:len(t.inserts)]
	}
}

// Read returns the visible value of (row, col): the transaction's own
// uncommitted write if present, the current in-place value if its newest
// version is within the snapshot, or the version-chain image otherwise.
// ok is false when the row is invisible (inserted after the snapshot).
//
//htap:hotpath
func (t *Txn) Read(ref *TableRef, row int64, col int) (int64, bool) {
	if t.status != statusActive {
		return 0, false
	}
	if w := t.written(ref, row, col); w != nil {
		return w.val, true
	}
	if t.holds(ref, row) {
		// We hold the record lock (lock checked the row is published and
		// rowTS <= begin), so the in-place cells are stable and visible.
		return ref.Table.ReadActive(row, col), true
	}
	return readCommitted(ref, row, col, t.begin)
}

// readCommitted resolves a snapshot read against storage. The row's
// timestamp word is its seqlock: a commit flags it (columnar.Applying)
// before drawing its commit timestamp and stamps it once the cells are out.
//
//   - A flagged word: the commit's timestamp may be on either side of the
//     snapshot, and its cells half-written, so the reader yields and looks
//     again.
//   - A word past the snapshot: the commit that stamped it pushed the
//     pre-image, with its own timestamp as the image's Until, before
//     applying, so the version chain's answer is final. Nothing the
//     reader needs is reclaimed: its snapshot is at or above every
//     pusher's watermark and below that Until. And the commit did push:
//     it skips its pre-images only when it finds no other transaction
//     open after drawing its timestamp, and this reader, whose begin is
//     below that timestamp, was counted open before it drew its begin.
//   - Otherwise the cell in place is the snapshot's if the word is
//     unchanged after the load: a commit writing it meanwhile would have
//     flagged the word first, and one that flags it later draws its
//     timestamp after this reader began.
//
//htap:hotpath
func readCommitted(ref *TableRef, row int64, col int, asOf uint64) (int64, bool) {
	if row >= ref.Table.Rows() {
		return 0, false
	}
	for {
		if ts := ref.Table.RowTS(row); ts&columnar.Applying == 0 {
			if ts > asOf {
				return ref.Versions.ReadAsOf(row, col, asOf)
			}
			v := ref.Table.ReadActive(row, col)
			if ref.Table.RowTS(row) == ts {
				return v, true
			}
		}
		runtime.Gosched()
	}
}

// Write buffers a cell write after taking the record's exclusive lock and
// validating first-updater-wins. Returns ErrDie (caller should abort and
// retry) or ErrConflict (snapshot-isolation write conflict).
//
//htap:hotpath
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
	if len(t.writes) == cap(t.writes) {
		t.grow()
	}
	t.writes = t.writes[:len(t.writes)+1]
	t.writes[len(t.writes)-1] = writeOp{ref: ref, row: row, col: col, val: val}
}

// lock takes the record's exclusive lock for this transaction, once:
// acquire under wait-die, validate first-updater-wins. The pre-image waits
// for the commit (pushPreImages), so a transaction that aborts leaves no
// version behind. A row not yet published is invisible to every snapshot
// and unlockable.
//
//htap:hotpath
func (t *Txn) lock(ref *TableRef, row int64) error {
	if t.status != statusActive {
		return ErrAborted
	}
	if row >= ref.Table.Rows() {
		return t.errInvisible(ref, row)
	}
	if t.holds(ref, row) {
		return nil
	}
	if err := ref.Locks.Acquire(row, t.priority); err != nil {
		return err
	}
	if len(t.held) == cap(t.held) {
		t.grow()
	}
	t.held = t.held[:len(t.held)+1]
	t.held[len(t.held)-1] = heldLock{ref, row}
	// First-updater-wins: a version committed after our snapshot means
	// a concurrent writer already won.
	if ref.Table.RowTS(row) > t.begin {
		return ErrConflict
	}
	return nil
}

// growImage resizes the pre-image gather buffer (Push copies out of it).
//
//htap:coldpath
func (t *Txn) growImage(width int) { t.img = make([]int64, width) }

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
//
//htap:hotpath
func (t *Txn) WriteFunc(ref *TableRef, row int64, col int, fn func(old int64) int64) error {
	if err := t.lock(ref, row); err != nil {
		return err
	}
	v, _ := t.Read(ref, row, col) // our own buffered write, or the cell in place
	t.buffer(ref, row, col, fn(v))
	return nil
}

//htap:coldpath
func (t *Txn) errInvisible(ref *TableRef, row int64) error {
	return fmt.Errorf("txn: row %d of table %q invisible to snapshot %d",
		row, ref.Table.Schema().Name, t.begin)
}

// Insert buffers n whole-row inserts into ref's table and returns the rows
// for the caller to fill: one flat row-major slot of n × (table width) raw
// words, zeroed, inside the transaction's insert arena. The slot is valid
// until the next Insert call or the end of the transaction body, whichever
// comes first — fill it before either. The rows are appended to both
// instances at commit and onCommit (may be nil) receives the first assigned
// row ID so the caller can maintain primary-key indexes.
//
//htap:hotpath
func (t *Txn) Insert(ref *TableRef, n int, onCommit func(firstRow int64)) ([]int64, error) {
	if t.status != statusActive {
		return nil, ErrAborted
	}
	width := len(ref.Table.Schema().Columns)
	lo := len(t.arena)
	hi := lo + n*width
	if hi > cap(t.arena) {
		t.growArena(hi)
	}
	t.arena = t.arena[:hi]
	slot := t.arena[lo:hi:hi]
	clear(slot)
	if len(t.inserts) == cap(t.inserts) {
		t.grow()
	}
	t.inserts = t.inserts[:len(t.inserts)+1]
	t.inserts[len(t.inserts)-1] = insertOp{ref: ref, lo: lo, hi: hi, width: width, onCommit: onCommit}
	return slot, nil
}

// growArena moves the arena to a backing array of at least n words. Slots
// handed out earlier keep pointing into the old one, which is why a slot
// must be filled before the next Insert.
//
//htap:coldpath
func (t *Txn) growArena(n int) {
	arena := make([]int64, len(t.arena), n+n/2)
	copy(arena, t.arena)
	t.arena = arena
}

// Commit pushes each written row's full-row pre-image to the delta store
// if another transaction is open, applies the write set to the active
// instances, appends inserts to both instances, and releases all locks.
// With a WAL attached (Manager.SetWAL) the write set is appended to the
// log first; the in-memory application runs under the log's lock, so log
// order equals apply order and insert replay reassigns identical row IDs.
//
// Every written row's timestamp word is flagged (Table.MarkApplying)
// before the commit timestamp is drawn, and apply's UpdateCells stamps it
// over the flag: a snapshot reader that finds the word unflagged and
// unchanged across its cell load knows any commit still to come on the row
// lies after its own begin (see readCommitted). The pre-images are pushed
// between the draw and the apply, stamped with the commit timestamp as the
// end of their currency: no reader can miss one, because a reader that
// finds the word past its snapshot found it stamped, after the push. They
// are pushed only if the manager counts another open transaction once the
// commit timestamp is drawn. If this one is alone, every snapshot still to
// come begins above the commit and none can read an image from before it,
// so the rows' chains are dropped instead (vm.Store.Forget): a lone client
// pays for no version. The count is raised before a begin timestamp is
// drawn, so a reader with a smaller snapshot is always in it. The
// flags go on inside the commit gate, so a committer parked at a
// CommitBarrier stalls no reader, and a commit whose apply never ran (the
// log lost or refused its record) clears them before the locks are
// released; the versions it pushed duplicate the rows it left in place.
//
// A nil return means committed and durable per the log's sync policy. An
// error satisfying wal.IsSyncFailure means the commit DID apply in
// memory — reads will see it — but the fsync failed, so it may not
// survive a crash; the log refuses further appends. Any other log error
// means the commit never applied and the transaction aborted.
//
//htap:hotpath
func (t *Txn) Commit() error {
	if t.status != statusActive {
		return ErrAborted
	}
	t.m.gate.RLock()
	for i := range t.writes {
		w := &t.writes[i]
		if i > 0 && w.row == t.writes[i-1].row && w.ref == t.writes[i-1].ref {
			continue // a row's cells are written together: flagged once
		}
		w.ref.Table.MarkApplying(w.row)
	}
	t.m.fireProbe("commit")
	commitTS := t.m.clock.Add(1)
	// Here, not in apply: Replay applies logged commits and pushes nothing.
	// Loaded after the draw, never before: a reader that begins between
	// the flags and the draw has a snapshot below commitTS.
	t.pushPreImages(commitTS, t.m.open.Load() == 1)

	var syncErr error
	if log := t.m.log.Load(); log != nil {
		applied, err := t.logAndApply(log, commitTS)
		if !applied {
			// The log refused or lost the record and apply did not run:
			// nothing committed. Abort.
			t.unmark()
			t.m.gate.RUnlock()
			t.end(statusAborted)
			return errLogAppend(err)
		}
		syncErr = err
	} else {
		t.apply(commitTS)
	}
	// Inside the gate, so a CommitBarrier sees every logged commit counted.
	t.m.commits.Add(1)
	t.m.gate.RUnlock()
	t.end(statusCommitted)
	return syncErr
}

// pushPreImages pushes the image each written row had before this commit:
// current from the timestamp under the row's Applying flag until commitTS.
// The rows are locked and flagged and the gate is held, so the active
// instance holds exactly that image and no switch can move it. alone says
// no other transaction was open once commitTS was drawn: then no snapshot
// can read the images, and each row's chain is forgotten instead.
//
//htap:hotpath
func (t *Txn) pushPreImages(commitTS uint64, alone bool) {
	for i := range t.writes {
		w := &t.writes[i]
		if i > 0 && w.row == t.writes[i-1].row && w.ref == t.writes[i-1].ref {
			continue // one image per row, as Commit flags it once
		}
		if alone {
			w.ref.Versions.Forget(w.row, commitTS)
			continue
		}
		tab := w.ref.Table
		width := len(tab.Schema().Columns)
		if cap(t.img) < width {
			t.growImage(width)
		}
		img := t.img[:width]
		tab.ReadRow(tab.ActiveIndex(), w.row, img)
		w.ref.Versions.Push(w.row, tab.RowTS(w.row)&^columnar.Applying, commitTS, img, t.watermark)
	}
}

// logAndApply is the write-ahead half of Commit and reports whether apply
// ran: whatever the error, the commit applied exactly when it did.
// Read-only transactions log a zero-op record too: recovery then
// reconstructs the exact clock and commit count, not just state. Off the
// allocation-free path only for the closure the log runs under its lock;
// the record itself is reused.
//
//htap:coldpath
func (t *Txn) logAndApply(log *wal.Log, commitTS uint64) (applied bool, err error) {
	_, err = log.Append(t.record(commitTS), func() {
		t.apply(commitTS)
		applied = true
	})
	return applied, err
}

// unmark clears the flags Commit set, for a commit that never applied.
//
//htap:coldpath
func (t *Txn) unmark() {
	for i := range t.writes {
		t.writes[i].ref.Table.ClearApplying(t.writes[i].row)
	}
}

//htap:coldpath
func errLogAppend(err error) error { return fmt.Errorf("txn: commit log append: %w", err) }

// apply writes the write set in place, then appends the inserts. Tables
// are taken in first-touch order and each is pinned once, for ALL of this
// transaction's writes to it, so a concurrent instance switch cannot split
// a row's (or a table's) cells across the twins. Commit has pushed the
// pre-images, so snapshot readers can already resolve around these rows.
//
//htap:hotpath
func (t *Txn) apply(commitTS uint64) {
	for i := range t.writes {
		ref := t.writes[i].ref
		if t.wroteBefore(i, ref) {
			continue // applied under the pin of its first write
		}
		cells := t.tableCells(i, ref)
		ref.Table.BeginApply()
		ref.Table.UpdateCells(cells, commitTS)
		ref.Table.EndApply()
	}
	for i := range t.inserts {
		ins := &t.inserts[i]
		first := t.appendInsert(ins, commitTS)
		if ins.onCommit != nil {
			ins.onCommit(first)
		}
	}
}

// appendInsert appends one insert's rows from the arena to its table and
// returns the first row ID. The arena is row-major and AppendColumns fills
// a column run at a time: the run's k-th word is column c of row off+k.
// It is off the linted allocation-free path only for that fill closure,
// which stays on the stack because AppendColumns does not let fill escape
// (CI's "Hot accessors inline" step checks it; TestTxnAllocBudget pins the
// whole commit).
//
//htap:coldpath
func (t *Txn) appendInsert(ins *insertOp, commitTS uint64) int64 {
	rows, width := t.arena[ins.lo:ins.hi], ins.width
	// fill never fails, so neither does AppendColumns.
	first, _ := ins.ref.Table.AppendColumns(int64(len(rows)/width), commitTS, func(c int, off int64, dst []int64) error {
		for k, r := 0, int(off)*width+c; k < len(dst); k, r = k+1, r+width {
			dst[k] = rows[r]
		}
		return nil
	})
	return first
}

// tableCells returns the writes to ref's table from writes[i] on as cells,
// built in the transaction's scratch and valid until the next call.
func (t *Txn) tableCells(i int, ref *TableRef) []columnar.Cell {
	if cap(t.cells) < len(t.writes)-i {
		t.growCells(len(t.writes) - i)
	}
	cells := t.cells[:0]
	for _, w := range t.writes[i:] {
		if w.ref == ref {
			cells = cells[:len(cells)+1]
			cells[len(cells)-1] = columnar.Cell{Row: w.row, Col: w.col, Val: w.val}
		}
	}
	return cells
}

//htap:coldpath
func (t *Txn) growCells(n int) { t.cells = make([]columnar.Cell, n+n/2) }

// wroteBefore reports whether a write earlier than writes[i] is to ref.
func (t *Txn) wroteBefore(i int, ref *TableRef) bool {
	for j := i - 1; j >= 0; j-- {
		if t.writes[j].ref == ref {
			return true
		}
	}
	return false
}

// record builds the WAL record for this transaction's write set in the
// transaction's reusable record; insert ops alias the arena.
func (t *Txn) record(commitTS uint64) *wal.Record {
	rec := &t.rec
	rec.CommitTS, rec.Ops = commitTS, rec.Ops[:0]
	for _, w := range t.writes {
		rec.Ops = append(rec.Ops, wal.Op{
			Kind:  wal.OpUpdate,
			Table: w.ref.id,
			Row:   w.row,
			Col:   uint32(w.col),
			Val:   w.val,
		})
	}
	for _, ins := range t.inserts {
		if ins.hi == ins.lo {
			continue
		}
		rec.Ops = append(rec.Ops, wal.Op{
			Kind:  wal.OpInsert,
			Table: ins.ref.id,
			NRows: (ins.hi - ins.lo) / ins.width,
			Width: ins.width,
			Vals:  t.arena[ins.lo:ins.hi],
		})
	}
	return rec
}

// Abort drops buffered work and releases all locks.
//
//htap:hotpath
func (t *Txn) Abort() {
	if t.status == statusActive {
		t.end(statusAborted)
	}
}

// end releases every lock, leaves the active set and counts an abort.
func (t *Txn) end(status txnStatus) {
	for _, h := range t.held {
		h.ref.Locks.Release(h.row)
	}
	t.held = t.held[:0]
	t.status = status
	t.m.mu.Lock()
	t.m.active[t.slot] = 0
	t.m.open.Add(-1)
	t.m.mu.Unlock()
	if status == statusAborted {
		t.m.aborts.Add(1)
	}
}
