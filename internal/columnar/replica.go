package columnar

import (
	"sync/atomic"
)

// Replica is the OLAP engine's private columnar copy of a table (the "OLAP
// instance" of Figure 2). Row IDs align with the OLTP instances, so the
// delta-ETL can copy updated rows in place and append inserted rows. The
// replica shares the table's string dictionaries, making raw words
// directly comparable across engines.
type Replica struct {
	table *Table
	cols  []*Words
	rows  atomic.Int64
}

// NewReplica returns an empty replica of the table.
func NewReplica(t *Table) *Replica {
	r := &Replica{table: t}
	r.cols = make([]*Words, len(t.schema.Columns))
	for i := range r.cols {
		r.cols[i] = newWords(0)
	}
	return r
}

// Rows returns the replica's watermark: rows [0, Rows) are loaded.
func (r *Replica) Rows() int64 { return r.rows.Load() }

// Col exposes raw column storage for analytical scans.
func (r *Replica) Col(c int) *Words { return r.cols[c] }

// CopyInserts bulk-copies rows [lo, hi) of every column from the snapshot
// instance and advances the watermark to hi. It returns the bytes copied.
func (r *Replica) CopyInserts(snap *Instance, lo, hi int64) int64 {
	if hi <= lo {
		return 0
	}
	for c := range r.cols {
		r.cols[c].CopyRange(snap.cols[c], lo, hi)
	}
	if hi > r.rows.Load() {
		r.rows.Store(hi)
	}
	return (hi - lo) * r.table.schema.RowBytes()
}

// CopyRow copies a single (updated) row from the snapshot instance,
// returning the bytes copied. The row must be below the watermark.
func (r *Replica) CopyRow(snap *Instance, row int64) int64 {
	for c := range r.cols {
		r.cols[c].Store(row, snap.cols[c].Load(row))
	}
	return r.table.schema.RowBytes()
}

// EqualRow reports whether the replica row matches the instance row
// byte-for-byte (test helper for the sync/ETL invariants).
func (r *Replica) EqualRow(in *Instance, row int64) bool {
	for c := range r.cols {
		if r.cols[c].Load(row) != in.cols[c].Load(row) {
			return false
		}
	}
	return true
}
