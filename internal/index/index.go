// Package index provides secondary indexes over twin-instance columnar
// tables: for an Int64 or dictionary-encoded String column, a map from
// value (the dictionary code for String columns) to the ascending ids of
// the rows holding it. Two readers use them: Bind's exact Eq counts for
// the statistics-free join order, and Eq-narrowed join build sides.
// Indexes are built lazily on first lookup and maintained incrementally
// where they are read: every Lookup first extends the index it serves
// from its row watermark, without rescanning history. Nothing refreshes
// them on a schedule — not the RDE engine at ETL boundaries, not an
// instance switch.
//
// Because inserts are pushed to both columnar instances (§3.2), a column
// that has never seen an in-place update holds identical values in every
// instance and at every row below the watermark, so one index serves
// replica, snapshot, and split access paths alike. Columns that do see
// in-place updates are rebuilt from the active instance whenever their
// per-column update counter moves; callers that scan other instances must
// check Table.ColumnUpdateCount themselves before trusting the rows.
package index

import (
	"sync"

	"elastichtap/internal/columnar"
)

// maxDistinct caps the number of distinct values an index will track.
// Columns beyond it (free-text dictionaries, near-unique measures) are
// marked unindexable and release their memory.
const maxDistinct = 1 << 14

// rebuildAttempts bounds the build-vs-concurrent-update retry loop; if a
// column is mutated faster than we can rebuild, the index stays marked
// stale and the lookup reports the column unindexed for now.
const rebuildAttempts = 4

// colIndex is one column's index state.
type colIndex struct {
	dead      bool // unindexable: float column or distinct cap blown
	rows      int64
	updatesAt int64
	post      map[int64][]int64 // value → ascending row ids
}

// Set is the secondary-index set of one table. All methods are safe for
// concurrent use; builds and refreshes serialize on an internal mutex.
type Set struct {
	t  *columnar.Table
	mu sync.Mutex
	// cols is sized to the schema; entries are nil until first demanded.
	//htap:guardedby mu
	cols []*colIndex
}

// NewSet returns an empty index set over t. No index is built until a
// column is first looked up.
func NewSet(t *columnar.Table) *Set {
	return &Set{t: t, cols: make([]*colIndex, len(t.Schema().Columns))}
}

// Table returns the indexed table.
func (s *Set) Table() *columnar.Table { return s.t }

// Lookup returns the ascending ids of the rows holding raw value v
// (dictionary code for String columns) in column col, complete for rows
// [0, watermark); an absent value returns nil. Rows at or beyond the
// watermark were appended after the last refresh and must be treated as
// potential matches. ok is false when the column cannot be indexed or the
// index could not be brought up to date.
//
// The returned slice is shared with the index and must not be written.
// It stays valid: later refreshes only append past its length, and a
// rebuild allocates new slices.
func (s *Set) Lookup(col int, v int64) (rows []int64, watermark int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ci := s.ensure(col)
	if ci.dead || !s.refresh(col, ci) {
		return nil, 0, false
	}
	return ci.post[v], ci.rows, true
}

// CountEq returns the exact number of rows below the index watermark whose
// column equals v, for zero-statistics planner sizing. ok is false when
// the column is not indexed.
func (s *Set) CountEq(col int, v int64) (n int64, ok bool) {
	rows, _, ok := s.Lookup(col, v)
	return int64(len(rows)), ok
}

// Refresh brings every built index up to the table's current row count,
// rebuilding columns whose update counters moved; it never builds an
// index that no lookup has demanded. Lookup refreshes the column it
// serves, so the engine never calls this: it is for callers that want the
// refresh paid, or timed, ahead of the lookups.
func (s *Set) Refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for col, ci := range s.cols {
		if ci == nil || ci.dead {
			continue
		}
		s.refresh(col, ci)
	}
}

// ensure returns column col's index state, allocating it on first demand.
//
//htap:locked mu
func (s *Set) ensure(col int) *colIndex {
	if ci := s.cols[col]; ci != nil {
		return ci
	}
	ci := &colIndex{}
	switch s.t.Schema().Columns[col].Type {
	case columnar.String, columnar.Int64:
		ci.post = make(map[int64][]int64)
	default:
		ci.dead = true
	}
	s.cols[col] = ci
	return ci
}

// refresh brings one column index up to date under s.mu: a moved update
// counter forces a rebuild from row zero, otherwise the index extends
// incrementally from its watermark. It reports whether the index is
// usable afterwards.
//
//htap:locked mu
func (s *Set) refresh(col int, ci *colIndex) bool {
	for attempt := 0; ; attempt++ {
		cur := s.t.ColumnUpdateCount(col)
		rows := s.t.Rows()
		if cur == ci.updatesAt && rows == ci.rows {
			return true
		}
		if attempt == rebuildAttempts {
			// Mutating faster than we can rebuild; leave marked stale so
			// the next lookup tries again.
			ci.updatesAt = cur - 1
			return false
		}
		from := ci.rows
		if cur != ci.updatesAt {
			// In-place updates invalidate old postings wholesale: the old
			// value's row would need removal, so rebuild from scratch into
			// new slices — callers may still hold the old ones.
			ci.post = make(map[int64][]int64)
			from = 0
		}
		ci.updatesAt = cur
		for r := from; r < rows; r++ {
			v := s.t.ReadActive(r, col)
			if _, seen := ci.post[v]; !seen && len(ci.post) == maxDistinct {
				s.kill(ci)
				return false
			}
			ci.post[v] = append(ci.post[v], r)
		}
		ci.rows = rows
	}
}

// kill marks a column unindexable and releases its postings.
//
//htap:locked mu
func (s *Set) kill(ci *colIndex) {
	ci.dead = true
	ci.post = nil
	ci.rows = 0
}
