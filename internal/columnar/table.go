package columnar

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"elastichtap/internal/bitset"
)

// Instance is one of a table's two columnar copies. Logically each holds
// every row; physically a chunk is held once, listed by both instances'
// directories (and, once absorbed, by the table's replica), until a
// transaction updates a cell of it in place — only then does the written
// instance get memory of its own for that chunk (Table.claim). Rows above
// the visible watermark are in the instance (inserts go to both) but are
// exposed only after it becomes active again.
type Instance struct {
	cols    []*Words
	visible atomic.Int64 // rows exposed to readers of this instance
	// dirty marks rows whose newest committed value lives in this instance
	// and has not yet been propagated to the twin (the paper's
	// update-indication bits, §3.2).
	dirty *bitset.Atomic
}

// Visible returns the number of rows readable in this instance.
func (in *Instance) Visible() int64 { return in.visible.Load() }

// DirtyCount returns the number of rows updated here since the last sync.
func (in *Instance) DirtyCount() int { return in.dirty.Count() }

// Col exposes raw column storage for scans. OLAP access paths scan the
// inactive instance only, which no writer updates below the watermark.
func (in *Instance) Col(c int) *Words { return in.cols[c] }

// Table is a twin-instance columnar table plus the shared metadata both
// copies use: string dictionaries, per-row commit timestamps, and the
// updated-since-ETL bitset that feeds freshness accounting.
//
// UpdateCells is the one in-place write path, a commit's cells of the
// table at a time. Outside this package its one caller is txn's
// Txn.apply, for live commits and replayed ones alike. It stores every
// cell, then stamps each written row's timestamp, then adds once per
// written column to its update count, then sets each row's two dirty bits
// and adds to the table's update count — so for every row, the timestamp
// and the column counts are out before the bits that announce it.
//
// A row's timestamp word is also its seqlock: from a live commit's
// MarkApplying until UpdateCells stamps it, the word carries the Applying
// flag, and the row's cells may be changing.
type Table struct {
	schema Schema
	dicts  []*Dict

	inst   [2]*Instance
	active atomic.Int32
	// replica is the table's OLAP replica, the third directory that may
	// list an instance's chunk (NewReplica attaches it); nil for a table
	// that has none, whose twins answer only to each other.
	replica *Replica

	rowTS *Words       // commit timestamp of each row's newest version, or Applying-flagged
	rows  atomic.Int64 // committed rows (visible in the active instance)

	// dirtyOLAP marks rows updated in place since the delta-ETL last drained
	// them; only UpdateCells sets it. Inserts need no bits — every row at or
	// above the replica's watermark is fresh — so a row inserted and then
	// updated before its first ETL carries a bit above the watermark and is
	// already counted as an insert: FreshSince counts the bits below it.
	dirtyOLAP *bitset.Atomic

	// updates counts lifetime in-place cell updates. Insert-only tables
	// stay at zero, which lets the RDE skip scan/switch exclusion for
	// them: appends are chunk-stable and row-disjoint from any scan.
	updates atomic.Int64

	// colUpdates counts, per column, every write that changed an existing
	// cell of an instance. The only writers of an existing cell are
	// UpdateCells and SyncTo, and both count (store first, then count), so a
	// reader that loads the counter, reads cells, and finds the counter
	// unmoved has seen no cell of that column change underneath it — in
	// either instance. Secondary indexes and cached join build sides hang
	// their staleness checks on that: a column whose counter has not moved
	// since they were built serves from derived state alone, even while
	// sibling columns churn, and a counter still at zero means every chunk
	// of the column is still the one both instances share, holding the
	// appended values — identical in every source because there is one.
	// UpdateCells counts before it sets the row's update-indication bit, so
	// whoever sees the bit (SyncTo) sees the column counted.
	// This is the one per-column update signal the table keeps (the
	// "updated tuples" flag of the SM's column statistics, §3.2).
	colUpdates []atomic.Int64

	// appendMu serializes row allocation across committing transactions, and
	// with it everything that decides which chunks the twins share: growth,
	// the first-write split (unshare) and the switch.
	appendMu sync.Mutex
	// applyMu lets committing transactions pin the active instance for the
	// duration of their in-place write batch: a switch concurrent with a
	// multi-cell commit would otherwise split the row across instances
	// ("returns the starting address of the inactive instance when no
	// active OLTP worker thread is using it any more", §3.2). Switch holds
	// it exclusively for its whole body, which also serializes switches.
	applyMu sync.RWMutex
}

// NewTable builds an empty twin-instance table.
func NewTable(schema Schema, capHint int64) *Table {
	if len(schema.Columns) == 0 {
		panic(fmt.Sprintf("columnar: table %q has no columns", schema.Name))
	}
	t := &Table{schema: schema}
	t.dicts = make([]*Dict, len(schema.Columns))
	for i, c := range schema.Columns {
		if c.Type == String {
			t.dicts[i] = NewDict()
		}
	}
	for k := 0; k < 2; k++ {
		in := &Instance{dirty: bitset.New(int(capHint))}
		in.cols = make([]*Words, len(schema.Columns))
		for i := range in.cols {
			if k == 0 {
				in.cols[i] = newWords(capHint)
			} else {
				in.cols[i] = newWords(0)
				in.cols[i].ensureShared(t.inst[0].cols[i], capHint)
			}
		}
		t.inst[k] = in
	}
	t.rowTS = newWords(capHint)
	t.dirtyOLAP = bitset.New(int(capHint))
	t.colUpdates = make([]atomic.Int64, len(schema.Columns))
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Dict returns the dictionary of a String column (nil otherwise).
func (t *Table) Dict(col int) *Dict { return t.dicts[col] }

// Rows returns the committed row count (active-instance visibility).
func (t *Table) Rows() int64 { return t.rows.Load() }

// ActiveIndex returns which instance (0 or 1) is active.
func (t *Table) ActiveIndex() int { return int(t.active.Load()) }

// Active returns the active instance.
func (t *Table) Active() *Instance { return t.inst[t.active.Load()] }

// Inactive returns the inactive instance.
func (t *Table) Inactive() *Instance { return t.inst[1-t.active.Load()] }

// Instance returns instance k (0 or 1).
func (t *Table) Instance(k int) *Instance { return t.inst[k] }

// twinOf returns the instance that is not in.
func (t *Table) twinOf(in *Instance) *Instance {
	if in == t.inst[0] {
		return t.inst[1]
	}
	return t.inst[0]
}

// DirtyOLAP exposes the updated-since-ETL bitset.
func (t *Table) DirtyOLAP() *bitset.Atomic { return t.dirtyOLAP }

// AppendRows allocates n new committed rows holding the provided rows in
// BOTH instances (§3.2: "inserts are pushed to both instances") — stored
// once where the instances share the chunk, twice where an update has split
// it — stamps them with commit timestamp ts, and returns the first row ID.
// rows[i] must have one raw word per column. It is the row-major append,
// for a committing transaction's inserts; a bulk source that can write a
// column at a time uses AppendColumns.
func (t *Table) AppendRows(rows [][]int64, ts uint64) int64 {
	for _, row := range rows {
		if len(row) != len(t.schema.Columns) {
			panic(fmt.Sprintf("columnar: row width %d != schema width %d for table %q",
				len(row), len(t.schema.Columns), t.schema.Name))
		}
	}
	return t.appendRun(rows, ts)
}

// appendRun is AppendRows' loop. It works a chunk run at a time, column by
// column: the destination run of instance 0 is resolved once and filled,
// and copied to instance 1's run only if that is other memory — a new chunk
// is allocated once and listed by both instances, so it is not until an
// update has split it. The cells lie above the published row count, where
// nothing reads, so they need no atomic stores: storing rows/visible last,
// under appendMu, is what publishes them.
func (t *Table) appendRun(rows [][]int64, ts uint64) int64 {
	n := int64(len(rows))
	if n == 0 {
		return t.rows.Load()
	}
	t.appendMu.Lock()
	base, end := t.reserve(n)
	a, b := t.inst[0].cols, t.inst[1].cols
	for r := base; r < end; {
		stamps := t.rowTS.run(r, end)
		off := int(r - base)
		for c := range a {
			dst := a[c].run(r, end)
			for i := range dst {
				dst[i] = rows[off+i][c]
			}
			if twin := b[c].run(r, end); &twin[0] != &dst[0] {
				copy(twin, dst)
			}
		}
		for i := range stamps {
			stamps[i] = int64(ts)
		}
		r += int64(len(stamps))
	}
	t.publish(end)
	t.appendMu.Unlock()
	return base
}

// AppendColumns is the column-major append, for a source that produces a
// column at a time. It has two callers: a checkpoint restore decodes each
// column's section straight into the table's chunks, and the CH loader
// copies each column of a batch of generated rows. It allocates n new rows
// in both instances, then hands fill every chunk run of them, column by
// column and in row order, to fill in place — dst is the run's storage in
// instance 0, copied to instance 1 only where that is other memory. Once
// every run is filled the rows are stamped with commit timestamp ts and
// published, and the first row ID is returned. If fill fails, AppendColumns
// returns its error and publishes nothing: the rows stay above the row
// count, where no reader looks, and the next append overwrites them.
// Storage grows a run at a time, just before the run is filled, so a fill
// that fails early — a restore whose file is shorter than its header claims
// — has cost only the runs it filled. fill runs under the table's append
// lock, so it must not append to or update the table.
func (t *Table) AppendColumns(n int64, ts uint64, fill func(c int, dst []int64) error) (int64, error) {
	if n == 0 {
		return t.rows.Load(), nil
	}
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	base := t.rows.Load()
	end := base + n
	a, b := t.inst[0].cols, t.inst[1].cols
	for c := range a {
		for r := base; r < end; {
			next := min(r&^(ChunkSize-1)+ChunkSize, end)
			a[c].ensure(next)
			b[c].ensureShared(a[c], next)
			dst := a[c].run(r, end)
			if err := fill(c, dst); err != nil {
				return 0, err
			}
			if twin := b[c].run(r, end); &twin[0] != &dst[0] {
				copy(twin, dst)
			}
			r += int64(len(dst))
		}
	}
	t.rowTS.ensure(end)
	for r := base; r < end; {
		stamps := t.rowTS.run(r, end)
		for i := range stamps {
			stamps[i] = int64(ts)
		}
		r += int64(len(stamps))
	}
	t.publish(end)
	return base, nil
}

// reserve ensures storage for n rows above the row count in every column
// of both instances — the second twin listing the first's new chunks — and
// in the timestamps, and returns the rows' range. The caller holds
// appendMu.
func (t *Table) reserve(n int64) (base, end int64) {
	base = t.rows.Load()
	end = base + n
	a, b := t.inst[0].cols, t.inst[1].cols
	for c := range a {
		a[c].ensure(end)
		b[c].ensureShared(a[c], end)
	}
	t.rowTS.ensure(end)
	return base, end
}

// publish makes rows below end visible in the active instance only. The
// caller holds appendMu and has written every cell below end.
func (t *Table) publish(end int64) {
	t.rows.Store(end)
	t.inst[t.active.Load()].visible.Store(end)
}

// BeginApply pins the active instance for an UpdateCells batch; EndApply
// releases it. Committing transactions bracket their per-table write batch
// so an instance switch cannot land mid-row.
func (t *Table) BeginApply() { t.applyMu.RLock() }

// EndApply releases the pin taken by BeginApply.
func (t *Table) EndApply() { t.applyMu.RUnlock() }

// Cell is one in-place write of a committed row: Val for column Col of
// row Row.
type Cell struct {
	Row int64
	Col int
	Val int64
}

// UpdateCells writes a batch of cells of committed rows in the active
// instance at commit timestamp ts and marks their rows' update-indication
// bits. It is the table's one in-place write path: a commit hands it every
// cell it writes to the table, and UpdateCell is its one-cell form. Callers
// hold BeginApply around the call. A live commit also holds each written
// record's exclusive lock (MV2PL), has pushed the rows' pre-images to the
// version store and has flagged their timestamps; a replayed one, applied
// before any transaction begins, needs none of it. A cell listed twice
// ends with its later value.
//
// The batch goes out in the order Table's doc states, because of who reads
// the bits: the delta-ETL clears a row's dirtyOLAP bit and then reads its
// timestamp to learn whether the bit it cleared was this update's, and
// SyncTo skips the columns whose count has not moved.
//
//htap:hotpath
func (t *Table) UpdateCells(cells []Cell, ts uint64) {
	act := t.active.Load()
	in, twin := t.inst[act], t.inst[1-act]
	for _, c := range cells {
		t.claim(in.cols[c.Col], twin.cols[c.Col], c.Col, c.Row)
		in.cols[c.Col].Store(c.Row, c.Val)
	}
	// A commit lists a row's cells together, so a row is stamped and
	// marked once per run of its cells; a row listed again later is
	// stamped again, which changes nothing.
	for i, c := range cells {
		if i == 0 || cells[i-1].Row != c.Row {
			t.rowTS.Store(c.Row, int64(ts))
		}
	}
	t.countColumns(cells)
	for i, c := range cells {
		if i == 0 || cells[i-1].Row != c.Row {
			in.dirty.Set(int(c.Row))
			t.dirtyOLAP.Set(int(c.Row))
		}
	}
	t.updates.Add(int64(len(cells)))
}

// countColumns adds each written column's cells to its update count, one
// add per column: the columns of a window of 64 are collected as a mask,
// then each is counted in one pass over the batch.
//
//htap:hotpath
func (t *Table) countColumns(cells []Cell) {
	for lo := 0; lo < len(t.colUpdates); lo += 64 {
		var seen uint64
		for _, c := range cells {
			if d := uint(c.Col - lo); d < 64 {
				seen |= 1 << d
			}
		}
		for ; seen != 0; seen &= seen - 1 {
			col := lo + bits.TrailingZeros64(seen)
			n := int64(0)
			for _, c := range cells {
				if c.Col == col {
					n++
				}
			}
			t.colUpdates[col].Add(n)
		}
	}
}

// UpdateCell is UpdateCells for one cell.
//
//htap:hotpath
func (t *Table) UpdateCell(row int64, col int, v int64, ts uint64) {
	cell := [1]Cell{{Row: row, Col: col, Val: v}}
	t.UpdateCells(cell[:], ts)
}

// claim readies w, column col of one instance, for an in-place store at
// row: if twin (the other instance's column) or the replica lists w's chunk
// too, w gets a copy of its own first. Both have to be asked. An update
// that stores an equal value splits the active twin, the sync then stores
// nothing, and after the switch the new active twin shares that chunk with
// the replica alone.
//
//htap:hotpath
func (t *Table) claim(w, twin *Words, col int, row int64) {
	rep, c := t.replicaCol(col), w.blocks.Dir()[row>>chunkShift]
	if twin.lists(c, row) || rep != nil && rep.lists(c, row) {
		t.unshare(w, row, twin, rep)
	}
}

// replicaCol returns the replica's column col, or nil without a replica.
//
//htap:hotpath
func (t *Table) replicaCol(col int) *Words {
	if t.replica == nil {
		return nil
	}
	return t.replica.cols[col]
}

// unshare is the first in-place write to a chunk another directory lists:
// w gets a copy of its own in place of the chunk it shares with a or b (b
// may be nil), under appendMu so that no appender is filling the chunk's
// tail while it is copied. The other listers keep the old chunk — a scan
// holding a slice of it goes on reading memory nobody writes — and a
// transaction that loaded w's old directory reads the cell as it was before
// this update. txn's readCommitted keeps that value only if the row's
// timestamp word (RowTS), read as a seqlock around the cell, showed no
// Applying flag and did not change; otherwise it retries.
//
//htap:coldpath
func (t *Table) unshare(w *Words, row int64, a, b *Words) {
	t.appendMu.Lock()
	w.privatize(row, a, b)
	t.appendMu.Unlock()
}

// TwinBytes reports where the two instances' cells are: shared is the bytes
// of chunks both directories list (held once), private the bytes of chunks
// only one lists (an updated chunk counts twice, once per instance). Their
// sum is the memory under the twins; half of private is what the second
// twin costs.
func (t *Table) TwinBytes() (shared, private int64) {
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	for c, w := range t.inst[0].cols {
		for i := range w.blocks.Dir() {
			if w.sharesChunk(t.inst[1].cols[c], int64(i)<<chunkShift) {
				shared += chunkBytes
			} else {
				private += 2 * chunkBytes
			}
		}
	}
	return shared, private
}

// ReadCell reads one cell of the given instance with atomic semantics,
// suitable for transactional point reads against the active instance.
func (t *Table) ReadCell(inst int, row int64, col int) int64 {
	return t.inst[inst].cols[col].Load(row)
}

// ReadRow gathers the first len(dst) cells of a row of the given instance
// into dst, each with atomic semantics — a record's pre-image, taken by the
// holder of its lock.
//
//htap:hotpath
func (t *Table) ReadRow(inst int, row int64, dst []int64) {
	cols := t.inst[inst].cols
	for c := range dst {
		dst[c] = cols[c].Load(row)
	}
}

// ReadActive reads one cell of the active instance.
func (t *Table) ReadActive(row int64, col int) int64 {
	return t.ReadCell(int(t.active.Load()), row, col)
}

// RowTS returns the commit timestamp of the row's newest version, with the
// Applying flag set while a commit is writing the row.
func (t *Table) RowTS(row int64) uint64 { return uint64(t.rowTS.Load(row)) }

// Applying is the flag a row's timestamp word carries from MarkApplying to
// the UpdateCells that stamps it. Commit timestamps never reach this bit,
// and a flagged word compares greater than any of them.
const Applying uint64 = 1 << 63

// MarkApplying flags row's timestamp word: its cells are about to change.
// The caller holds the row's record lock and has not yet drawn the commit
// timestamp; UpdateCells replaces the flagged word with that timestamp, or
// ClearApplying restores the word for a commit that never applied. The
// lock holder is the only writer of the word, so a load and a store
// suffice.
//
//htap:hotpath
func (t *Table) MarkApplying(row int64) {
	p := t.rowTS.cell(row)
	atomic.StoreInt64(p, int64(uint64(atomic.LoadInt64(p))|Applying))
}

// ClearApplying takes back MarkApplying, before the caller releases the
// row's lock.
//
//htap:coldpath
func (t *Table) ClearApplying(row int64) {
	p := t.rowTS.cell(row)
	atomic.StoreInt64(p, int64(uint64(atomic.LoadInt64(p))&^Applying))
}

// UpdateCount returns the lifetime number of in-place cell updates; zero
// means the table has only ever been appended to.
func (t *Table) UpdateCount() int64 { return t.updates.Load() }

// ColumnUpdateCount returns the lifetime number of writes that changed an
// existing cell of column col in either instance (transactional updates
// and the sync that propagates them); zero means the column has only ever
// been written by appends, so the instances still share all of it.
func (t *Table) ColumnUpdateCount(col int) int64 { return t.colUpdates[col].Load() }

// SwitchResult describes the outcome of an active-instance switch.
type SwitchResult struct {
	// Snapshot is the now-inactive instance holding a consistent snapshot.
	Snapshot *Instance
	// SnapshotIndex is its instance number.
	SnapshotIndex int
	// SnapshotRows is the row count of the snapshot.
	SnapshotRows int64
}

// Switch makes the inactive instance active and returns the old active
// instance as the consistent snapshot (§3.2). Sync precedes the switch: the
// caller (rde.Exchange) has drained the active instance's dirty records
// into the inactive one with SyncTo and holds commits off until the flip,
// so no transaction reads a stale value from the new active instance.
func (t *Table) Switch() SwitchResult {
	// Wait for in-flight commit batches: no worker may straddle the flip.
	t.applyMu.Lock()
	defer t.applyMu.Unlock()
	t.appendMu.Lock()
	oldA := t.active.Load()
	newA := 1 - oldA
	rows := t.rows.Load()
	// The new active instance exposes everything committed so far,
	// including inserts that were hidden while it was inactive (reserve
	// keeps both instances' storage the same length).
	t.inst[newA].visible.Store(rows)
	t.active.Store(newA)
	t.appendMu.Unlock()
	return SwitchResult{
		Snapshot:      t.inst[oldA],
		SnapshotIndex: int(oldA),
		SnapshotRows:  rows,
	}
}

// SyncTo drains instance src's dirty bits, copying each marked record into
// the other instance, and returns the number of records copied. Sync
// precedes the switch: src is the active instance and the destination the
// inactive one, which no transaction reads or writes, so nothing there is
// newer than what is copied and lock has nothing to exclude (callers pass a
// no-op). Commits may run meanwhile: a bit is cleared before its record is
// read and UpdateCells sets it after its store, so a record committed during
// its copy is marked again for the next call.
//
// Only cells whose word differs are stored, and each such store counts in
// colUpdates: the destination held the pre-update value until now, so
// anything derived from it since the update is stale for exactly those
// columns. Never-updated columns are one set of chunks under both instances:
// they are not looked at and stay at zero. A cell that differs lies in a
// chunk an update has split between the twins, but the destination's half
// may still be the chunk the replica lists, so the store claims it first.
func (t *Table) SyncTo(src int, lock func(row int64) func()) int {
	from := t.inst[src]
	dst := t.inst[1-src]
	return from.dirty.DrainSet(func(i int) {
		row := int64(i)
		unlock := lock(row)
		for c := range from.cols {
			if t.colUpdates[c].Load() == 0 {
				continue
			}
			if v := from.cols[c].Load(row); v != dst.cols[c].Load(row) {
				t.claim(dst.cols[c], from.cols[c], c, row)
				dst.cols[c].Store(row, v)
				t.colUpdates[c].Add(1)
			}
		}
		unlock()
	})
}

// EncodeRow converts friendly Go values into raw Words following the
// schema: int64/int for Int64, float64 for Float64, string for String.
func (t *Table) EncodeRow(vals ...any) []int64 {
	if len(vals) != len(t.schema.Columns) {
		panic(fmt.Sprintf("columnar: EncodeRow got %d values for %d columns of %q",
			len(vals), len(t.schema.Columns), t.schema.Name))
	}
	row := make([]int64, len(vals))
	for i, v := range vals {
		row[i] = t.EncodeValue(i, v)
	}
	return row
}

// EncodeValue converts one friendly value for column col into a raw word.
func (t *Table) EncodeValue(col int, v any) int64 {
	def := t.schema.Columns[col]
	switch def.Type {
	case Int64:
		switch x := v.(type) {
		case int64:
			return x
		case int:
			return int64(x)
		case uint64:
			return int64(x)
		}
	case Float64:
		if x, ok := v.(float64); ok {
			return EncodeFloat(x)
		}
	case String:
		if x, ok := v.(string); ok {
			return t.dicts[col].Code(x)
		}
	}
	panic(fmt.Sprintf("columnar: value %T not assignable to column %s %s of %q",
		v, def.Name, def.Type, t.schema.Name))
}

// DecodeValue converts a raw word of column col back to a friendly value.
func (t *Table) DecodeValue(col int, w int64) any {
	switch t.schema.Columns[col].Type {
	case Float64:
		return DecodeFloat(w)
	case String:
		return t.dicts[col].Str(w)
	default:
		return w
	}
}

// FreshStats summarizes data the OLAP replica has not yet absorbed.
type FreshStats struct {
	// Rows is the table's committed row count.
	Rows int64
	// UpdatedRows counts rows below the OLAP watermark with their
	// dirtyOLAP bit set (rows the replica has but that changed since).
	UpdatedRows int64
	// InsertedRows counts rows at or beyond the OLAP watermark.
	InsertedRows int64
}

// FreshRows is the number of tuples that differ between the table and the
// replica: every row is counted once, as an update or as an insert.
func (st FreshStats) FreshRows() int64 { return st.UpdatedRows + st.InsertedRows }

// FreshSince computes freshness statistics relative to an OLAP replica
// that has absorbed rows [0, olapRows): the inserts are the rows above
// that watermark, the updates a popcount of the bits below it.
func (t *Table) FreshSince(olapRows int64) FreshStats {
	rows := t.rows.Load()
	return FreshStats{
		Rows:         rows,
		UpdatedRows:  int64(t.dirtyOLAP.CountBelow(int(olapRows))),
		InsertedRows: max(rows-olapRows, 0),
	}
}
