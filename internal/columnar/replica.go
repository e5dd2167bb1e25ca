package columnar

import (
	"fmt"
	"sync/atomic"
)

// Replica is the OLAP engine's columnar instance of a table (the "OLAP
// instance" of Figure 2): a third chunk directory beside the twins'. Row
// IDs align with the OLTP instances, so the delta-ETL can copy updated
// rows in place and append inserted rows. A chunk it absorbs rows of that
// both twins still list is listed, not copied — insert-only data is held
// once by all three — and the replica gets memory of its own only for the
// chunks an update has split, and where it has to store a value its chunk
// does not hold. The replica shares the table's string dictionaries,
// making raw words directly comparable across engines.
type Replica struct {
	table *Table
	cols  []*Words
	rows  atomic.Int64
}

// NewReplica returns an empty replica of the table and attaches it, so
// the twins' in-place writers know the third directory that may list
// their chunks. A table has at most one replica, attached before the table
// is shared.
func NewReplica(t *Table) *Replica {
	if t.replica != nil {
		panic(fmt.Sprintf("columnar: table %q already has a replica", t.schema.Name))
	}
	r := &Replica{table: t}
	r.cols = make([]*Words, len(t.schema.Columns))
	for i := range r.cols {
		r.cols[i] = newWords(0)
	}
	t.replica = r
	return r
}

// Rows returns the replica's watermark: rows [0, Rows) are loaded.
func (r *Replica) Rows() int64 { return r.rows.Load() }

// Col exposes raw column storage for analytical scans.
func (r *Replica) Col(c int) *Words { return r.cols[c] }

// CopyInserts absorbs rows [lo, hi) of every column of the snapshot
// instance and advances the watermark to hi. Where the replica's chunk is
// the snapshot's — a chunk both twins still listed when the replica first
// reached it — the rows are there already; the rest of the range is
// copied. It returns the bytes absorbed — the logical volume, as if every
// cell were copied — and how many of them were listed instead of copied.
func (r *Replica) CopyInserts(snap *Instance, lo, hi int64) (bytes, aliased int64) {
	if hi <= lo {
		return 0, 0
	}
	twin := r.table.twinOf(snap)
	for c, w := range r.cols {
		src := snap.cols[c]
		w.ensureListing(src, twin.cols[c], hi)
		for i := lo; i < hi; {
			vals := src.run(i, hi)
			if r.claim(w, src, twin.cols[c], i) {
				// Source cells are read atomically: a batch reusing its
				// snapshot set may ETL from an instance a later exchange
				// re-activated, where transactions update cells in place.
				// The update bits keep such rows fresh for the next ETL.
				dst := w.run(i, hi)
				for j := range vals {
					dst[j] = atomic.LoadInt64(&vals[j])
				}
			} else {
				aliased += int64(len(vals)) * WordBytes
			}
			i += int64(len(vals))
		}
	}
	if hi > r.rows.Load() {
		r.rows.Store(hi)
	}
	return (hi - lo) * r.table.schema.RowBytes(), aliased
}

// CopyRow absorbs one (updated) row of the snapshot instance, which must
// lie below the watermark. It returns the row's bytes and how many of them
// were not stored because the replica's chunk is the snapshot's own.
func (r *Replica) CopyRow(snap *Instance, row int64) (bytes, aliased int64) {
	twin := r.table.twinOf(snap)
	for c, w := range r.cols {
		if r.claim(w, snap.cols[c], twin.cols[c], row) {
			w.Store(row, snap.cols[c].Load(row))
		} else {
			aliased += WordBytes
		}
	}
	return r.table.schema.RowBytes(), aliased
}

// claim readies the replica's column w for a store of src's values at row,
// twin being the other instance's column. It returns false when w's chunk
// is src's own — the values are there already and there is nothing to
// store — and otherwise makes sure no twin lists the chunk before the
// caller stores into it.
func (r *Replica) claim(w, src, twin *Words, row int64) bool {
	c := w.blocks.Dir()[row>>chunkShift]
	if src.lists(c, row) {
		return false
	}
	if twin.lists(c, row) {
		r.table.unshare(w, row, twin, src)
	}
	return true
}

// Bytes reports where the replica's cells are: shared is the bytes of
// chunks a twin lists as well, own the bytes of chunks only the replica
// lists (those updates had split when it reached them, and those it has
// written since).
func (r *Replica) Bytes() (shared, own int64) {
	t := r.table
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	for c, w := range r.cols {
		for i := range w.blocks.Dir() {
			row := int64(i) << chunkShift
			if w.sharesChunk(t.inst[0].cols[c], row) || w.sharesChunk(t.inst[1].cols[c], row) {
				shared += chunkBytes
			} else {
				own += chunkBytes
			}
		}
	}
	return shared, own
}

// EqualRow reports whether the replica row matches the instance row
// byte-for-byte (test helper for the sync/ETL invariants).
//
//htap:api rde's and core's tests hold the replica to an instance with it
func (r *Replica) EqualRow(in *Instance, row int64) bool {
	for c := range r.cols {
		if r.cols[c].Load(row) != in.cols[c].Load(row) {
			return false
		}
	}
	return true
}
