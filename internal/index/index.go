// Package index provides secondary indexes over twin-instance columnar
// tables: bitmap indexes (one bitset of row ids per distinct value) for
// dictionary-encoded columns, and hash indexes (value → ascending row-id
// postings) for int64 key columns. Indexes are built lazily on first
// lookup and maintained incrementally where they are read: every Lookup
// first extends the index it serves from its row watermark, without
// rescanning history. Nothing refreshes them on a schedule — not the RDE
// engine at ETL boundaries, not an instance switch.
//
// Because inserts are pushed to both columnar instances (§3.2), a column
// that has never seen an in-place update holds identical values in every
// instance and at every row below the watermark, so one index serves
// replica, snapshot, and split access paths alike. Columns that do see
// in-place updates are rebuilt from the active instance whenever their
// per-column update counter moves; callers that scan other instances must
// check Table.ColumnUpdateCount themselves before trusting postings.
package index

import (
	"sync"

	"elastichtap/internal/bitset"
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

// Postings is the set of row ids holding one value of an indexed column,
// in either bitmap or sorted-row-id form.
type Postings struct {
	bits *bitset.Atomic
	rows []int64
}

// Count returns the number of rows in the postings.
func (p Postings) Count() int64 {
	if p.bits != nil {
		return int64(p.bits.Count())
	}
	return int64(len(p.rows))
}

// Empty reports whether the postings hold no rows.
func (p Postings) Empty() bool {
	if p.bits != nil {
		return p.bits.Count() == 0
	}
	return len(p.rows) == 0
}

// ForEach calls fn for every row id in ascending order.
func (p Postings) ForEach(fn func(row int64)) {
	if p.bits != nil {
		p.bits.ForEachSet(func(i int) { fn(int64(i)) })
		return
	}
	for _, r := range p.rows {
		fn(r)
	}
}

// AnyInRange reports whether the postings contain a row in [lo, hi).
//
//htap:hotpath
func (p Postings) AnyInRange(lo, hi int64) bool {
	if lo >= hi {
		return false
	}
	if p.bits != nil {
		return p.bits.AnyInRange(int(lo), int(hi))
	}
	// Hand-rolled binary search: the morsel-skip path probes this per
	// block, and a sort.Search closure is a heap allocation there.
	i, j := 0, len(p.rows)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if p.rows[mid] < lo {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return i < len(p.rows) && p.rows[i] < hi
}

// colIndex is one column's index state.
type colIndex struct {
	dead      bool // unindexable: float column or distinct cap blown
	rows      int64
	updatesAt int64
	bitmap    map[int64]*bitset.Atomic // String (dictionary) columns
	hash      map[int64][]int64        // Int64 columns
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

// Lookup returns the postings for raw value v (dictionary code for String
// columns) in column col, complete for rows [0, watermark). Rows at or
// beyond the watermark were appended after the last refresh and must be
// treated as potential matches. ok is false when the column cannot be
// indexed or the index could not be brought up to date.
func (s *Set) Lookup(col int, v int64) (p Postings, watermark int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ci := s.ensure(col)
	if ci.dead || !s.refresh(col, ci) {
		return Postings{}, 0, false
	}
	if ci.bitmap != nil {
		if b := ci.bitmap[v]; b != nil {
			p = Postings{bits: b}
		}
	} else if rows := ci.hash[v]; rows != nil {
		p = Postings{rows: rows}
	}
	return p, ci.rows, true
}

// CountEq returns the exact number of rows below the index watermark whose
// column equals v, for zero-statistics planner sizing. ok is false when
// the column is not indexed.
func (s *Set) CountEq(col int, v int64) (n int64, ok bool) {
	p, _, ok := s.Lookup(col, v)
	if !ok {
		return 0, false
	}
	return p.Count(), true
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
	case columnar.String:
		ci.bitmap = make(map[int64]*bitset.Atomic)
	case columnar.Int64:
		ci.hash = make(map[int64][]int64)
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
			// value's row would need removal, so rebuild from scratch.
			if ci.bitmap != nil {
				ci.bitmap = make(map[int64]*bitset.Atomic)
			} else {
				ci.hash = make(map[int64][]int64)
			}
			from = 0
		}
		ci.updatesAt = cur
		for r := from; r < rows; r++ {
			v := s.t.ReadActive(r, col)
			if ci.bitmap != nil {
				b := ci.bitmap[v]
				if b == nil {
					if len(ci.bitmap) == maxDistinct {
						s.kill(ci)
						return false
					}
					b = bitset.New(0)
					ci.bitmap[v] = b
				}
				b.Set(int(r))
			} else {
				if _, seen := ci.hash[v]; !seen && len(ci.hash) == maxDistinct {
					s.kill(ci)
					return false
				}
				ci.hash[v] = append(ci.hash[v], r)
			}
		}
		ci.rows = rows
	}
}

// kill marks a column unindexable and releases its postings.
//
//htap:locked mu
func (s *Set) kill(ci *colIndex) {
	ci.dead = true
	ci.bitmap = nil
	ci.hash = nil
	ci.rows = 0
}
