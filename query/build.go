package query

// Join build sides: how a dimension's rows become a probe table, which
// of two representations the table takes, and what of it outlives one
// execution of a bound statement.
//
// A build side is either hashed (joinTab in probe.go) or
// dense: when the key columns' observed [min, max] ranges multiply out to
// at most denseCellsPerRow cells per build row, the keys are packed
// arithmetically — Σ (k_d − min_d)·stride_d — into a flat []int32 of
// payload-row numbers. A dense probe is a subtract, a bounds check and an
// indexed load per key word: no hash, no key compare, no probe chain, and
// 4 bytes per cell instead of a 16- or 32-byte slot. TPC-C primary keys
// (warehouse × district × id) are exactly this shape. Sparse domains —
// arbitrary int64 keys, selectively filtered builds — keep hashing. The
// choice is made from the data.
//
// Dense tables are kept on the bound statement (buildCache, shared by
// every WithArgs clone). An entry stays usable while every dimension
// column it read — keys, payload, predicates — has ColumnUpdateCount()==0,
// which means the column was only ever appended to and both instances
// read the same chunks (the invariant documented on columnar.Table's
// colUpdates), and while the stamped build-side predicate values equal
// the ones it was filtered by. A usable entry is extended with the rows
// appended since it was built; anything else rebuilds from row 0. What
// Prepare reports as build bytes is always the logical broadcast volume
// of the join — the rows a from-scratch build would read — so the cost
// model and the scheduler see the same query whether the table was
// reused or not.

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"elastichtap/internal/columnar"
)

// denseCellsPerRow bounds a dense table's sparsity: it may address at
// most this many cells per build row. At 4 the index costs at most 16
// bytes per key — a single-key hash slot, under half of a composite one
// at 3/4 load — and most CH dimensions pack at exactly 1.
const denseCellsPerRow = 4

// forceHashJoins is a test knob sending every build side down the hash
// path, so dense executions can be checked identical against hashed ones.
var forceHashJoins atomic.Bool

// buildSide is what one execution probes for one join: a dense table, or
// one of the two hash tables selected by the key width.
type buildSide struct {
	dn *denseTab
	j1 joinTab[int64]
	jK joinTab[jkey]
}

// denseTab is the arithmetically packed build table. It is immutable once
// an execution can hold it: the cache extends a copy.
type denseTab struct {
	// idx holds, per cell, 1 + the slab row of the key packed there; 0 =
	// absent. It is nil when it would be the identity — every cell taken,
	// by the slab row of the same number — which is what a dimension loaded
	// in primary-key order (stock, customer) packs to: such a table is its
	// own index and costs only its payload.
	idx  []int32
	slab []int64 // payload rows of npay words each, in insertion order
	nrow int32
	npay int
	// Key word d of a probe lands at (k_d − min[d])·stride[d] when
	// k_d − min[d] < span[d]; anything else cannot be in the table.
	min    [maxJoinCols]int64
	span   [maxJoinCols]uint64
	stride [maxJoinCols]uint64
}

// keyDomain is what a build's rows look like before a representation is
// chosen: how many pass the predicates and each key column's range.
type keyDomain struct {
	n      int64
	lo, hi [maxJoinCols]int64
}

// note widens the domain by row i of run.
func (dom *keyDomain) note(run *dimRun, i int) {
	for d := range run.keys {
		k := run.key(d, i)
		if dom.n == 0 || k < dom.lo[d] {
			dom.lo[d] = k
		}
		if dom.n == 0 || k > dom.hi[d] {
			dom.hi[d] = k
		}
	}
	dom.n++
}

// newDenseTab lays out a dense table over dom, or returns nil when the
// domain is too sparse to pack. prev, the table a key just overflowed,
// adds geometric headroom on the sides that grew — half the old span — so
// a growing dimension (orders under NewOrder) rebuilds O(log n) times; the
// headroom is dropped when it alone would break the sparsity bound.
func newDenseTab(j *joinPlan, dom *keyDomain, prev *denseTab) *denseTab {
	if dom.n == 0 || dom.n >= math.MaxInt32 {
		return nil
	}
	nkey := len(j.keyCols)
	layout := func(lo, hi [maxJoinCols]int64) *denseTab {
		t := &denseTab{npay: len(j.payCols), min: lo}
		limit, cells := uint64(dom.n)*denseCellsPerRow, uint64(1)
		for d := nkey - 1; d >= 0; d-- {
			s := uint64(hi[d]-lo[d]) + 1
			if s == 0 || s > limit/cells {
				return nil
			}
			t.span[d], t.stride[d] = s, cells
			cells *= s
		}
		t.idx = make([]int32, cells)
		t.slab = make([]int64, 0, int(dom.n)*t.npay)
		return t
	}
	if prev != nil {
		lo, hi := dom.lo, dom.hi
		for d := 0; d < nkey; d++ {
			room := int64(prev.span[d]/2) + 1
			if lo[d] < prev.min[d] {
				lo[d] -= room
			}
			if hi[d] > prev.min[d]+int64(prev.span[d]-1) {
				hi[d] += room
			}
		}
		if t := layout(lo, hi); t != nil {
			return t
		}
	}
	return layout(dom.lo, dom.hi)
}

// add puts row i of run into the table; later rows win duplicate keys. It
// reports false, leaving the table untouched, when a key word lies outside
// the packed domain.
func (t *denseTab) add(run *dimRun, i int) bool {
	var p uint64
	for d := range run.keys {
		x := uint64(run.key(d, i) - t.min[d])
		if x >= t.span[d] {
			return false
		}
		p += x * t.stride[d]
	}
	t.slab = run.appendPay(t.slab, i)
	t.nrow++
	t.idx[p] = t.nrow
	return true
}

// row resolves cell p to 1 + the slab row of the key packed there, 0 when
// the cell is empty.
func (t *denseTab) row(p uint64) int {
	if t.idx == nil {
		return int(p) + 1
	}
	return int(t.idx[p])
}

// elideIdx drops an idx that is the identity.
func (t *denseTab) elideIdx() {
	if int(t.nrow) != len(t.idx) {
		return
	}
	for p, r := range t.idx {
		if int(r) != p+1 {
			return
		}
	}
	t.idx = nil
}

// extended returns a copy of t that also holds dimension rows [lo, hi),
// or nil when one of them does not fit the packed domain. t itself is
// never written: executions that picked it up earlier keep probing it.
func (t *denseTab) extended(j *joinPlan, lo, hi int64, read *int64) *denseTab {
	nt := *t
	if nt.idx = slices.Clone(t.idx); nt.idx == nil {
		// Only a duplicate key still fits a full table; it needs the idx.
		nt.idx = make([]int32, t.nrow)
		for p := range nt.idx {
			nt.idx[p] = int32(p + 1)
		}
	}
	nt.slab = append(make([]int64, 0, len(t.slab)+int(hi-lo)*t.npay), t.slab...)
	fits := true
	j.eachRow(lo, hi, nil, read, func(run *dimRun, i int) {
		fits = fits && nt.add(run, i)
	})
	if !fits {
		return nil
	}
	return &nt
}

// dimRun is one run of build-side rows handed out as the raw chunk slices
// of the join's key and payload columns. Cells are loaded atomically: the
// rows are committed, but transactions may update them in place.
type dimRun struct {
	keys, pays [][]int64
}

func (r *dimRun) key(d, i int) int64 { return atomic.LoadInt64(&r.keys[d][i]) }

// appendPay appends row i's payload words to slab.
func (r *dimRun) appendPay(slab []int64, i int) []int64 {
	for _, pv := range r.pays {
		slab = append(slab, atomic.LoadInt64(&pv[i]))
	}
	return slab
}

// eachRow visits the build-side rows that pass the join's predicates, in
// ascending row order: the index-narrowed candidates when cands is
// non-nil (however few), the contiguous range [lo, hi) otherwise. Rows are
// read from the active instance straight out of chunk storage, one
// directory lookup per column per chunk instead of one per cell. read
// accumulates the rows looked at.
func (j *joinPlan) eachRow(lo, hi int64, cands []int64, read *int64, visit func(run *dimRun, i int)) {
	dt := j.dim.Table()
	run := dimRun{keys: make([][]int64, len(j.keyCols)), pays: make([][]int64, len(j.payCols))}
	preds := make([][]int64, len(j.preds))
	span := func(lo, hi int64) {
		in := dt.Active()
		for d, c := range j.keyCols {
			run.keys[d] = in.Col(c).Slice(lo, hi)
		}
		for d, c := range j.payCols {
			run.pays[d] = in.Col(c).Slice(lo, hi)
		}
		for d := range j.preds {
			preds[d] = in.Col(j.preds[d].slot).Slice(lo, hi)
		}
	rows:
		for i := 0; i < int(hi-lo); i++ {
			for d := range j.preds {
				if !j.preds[d].match(atomic.LoadInt64(&preds[d][i])) {
					continue rows
				}
			}
			visit(&run, i)
		}
		*read += hi - lo
	}
	if cands != nil {
		for _, r := range cands {
			span(r, r+1)
		}
		return
	}
	for lo < hi {
		end := min(hi, (lo/columnar.ChunkSize+1)*columnar.ChunkSize)
		span(lo, end)
		lo = end
	}
}

// narrowing looks for a secondary index that can stand in for a full scan
// of one join's build side: an Eq predicate (an intact single-word range
// after stamping) served by an index complete up to rows. It returns the
// index's own ascending row ids, or nil when no index serves; an absent
// value narrows to an empty non-nil slice, since eachRow reads nil cands
// as a full scan. The remaining predicates still run per row — postings
// only shrink the candidate set, so the build side is identical to a full
// scan. Columns that have ever been updated in place are left alone: their
// postings can lag a concurrent writer, while a scan of the active
// instance cannot.
func (j *joinPlan) narrowing(rows int64) []int64 {
	dh := j.dim
	dt := dh.Table()
	for i := range j.preds {
		f := &j.preds[i]
		if f.kind != fIntRange || f.ilo != f.ihi {
			continue
		}
		if dt.ColumnUpdateCount(f.slot) != 0 {
			continue
		}
		post, wm, ok := dh.Sec.Lookup(f.slot, f.ilo)
		if !ok || wm != rows {
			continue
		}
		if post == nil {
			post = []int64{}
		}
		return post
	}
	return nil
}

// appendOnly reports whether every dimension column the join reads has
// only ever been appended to — the condition under which a table built
// earlier still describes the rows it was built from.
func (j *joinPlan) appendOnly() bool {
	dt := j.dim.Table()
	for _, cols := range [][]int{j.keyCols, j.payCols} {
		for _, c := range cols {
			if dt.ColumnUpdateCount(c) != 0 {
				return false
			}
		}
	}
	for i := range j.preds {
		if dt.ColumnUpdateCount(j.preds[i].slot) != 0 {
			return false
		}
	}
	return true
}

// BuildStats counts what a bound statement's executions did with their
// join build sides, summed over its joins and over every WithArgs clone:
// Hits reused a kept table as it was, Extends added only the dimension
// rows appended since, Rebuilds read the dimension from row 0 (a first
// execution, an updated column, new build-side arguments, a key past the
// packed domain, or a hashed build side, which is never kept). RowsRead
// is the number of dimension rows those builds looked at.
type BuildStats struct {
	Hits, Extends, Rebuilds int64
	RowsRead                int64
}

// buildCache keeps, per join of a bound statement, the latest dense build
// table. One entry per join and no eviction: a statement has a handful of
// joins, and new build-side arguments replace the entry.
type buildCache struct {
	mu sync.Mutex
	//htap:guardedby mu
	entries []buildEntry
	stats   BuildStats //htap:guardedby mu
}

// buildEntry is one join's kept table: tab holds the dimension rows
// [0, built) that pass preds. tab is nil when nothing is kept.
type buildEntry struct {
	tab   *denseTab
	built int64
	preds []filter
}

// BuildStats returns the statement's build-side counters.
func (c *Compiled) BuildStats() BuildStats {
	if c.builds == nil {
		return BuildStats{}
	}
	c.builds.mu.Lock()
	defer c.builds.mu.Unlock()
	return c.builds.stats
}

// reuse returns join ji's kept table brought up to rows, or nil when the
// execution has to build from row 0. A table that a new key overflowed is
// returned as well, for the rebuild's headroom.
func (bc *buildCache) reuse(ji int, j *joinPlan, rows int64) (t, overflowed *denseTab) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	en := &bc.entries[ji]
	if en.tab == nil || !slices.Equal(en.preds, j.preds) || !j.appendOnly() {
		return nil, nil
	}
	if en.built >= rows {
		// At or past the rows this execution saw: a concurrent one that
		// looked later has already extended the table.
		bc.stats.Hits++
		return en.tab, nil
	}
	if nt := en.tab.extended(j, en.built, rows, &bc.stats.RowsRead); nt != nil {
		en.tab, en.built = nt, rows
		bc.stats.Extends++
		return nt, nil
	}
	overflowed = en.tab
	*en = buildEntry{}
	return nil, overflowed
}

// rebuilt records one from-scratch build of join ji and what it keeps.
func (bc *buildCache) rebuilt(ji int, keep buildEntry, read int64) {
	bc.mu.Lock()
	bc.entries[ji] = keep
	bc.stats.Rebuilds++
	bc.stats.RowsRead += read
	bc.mu.Unlock()
}

// buildJoin produces join ji's build side for one execution, and the
// number of rows its broadcast is charged for: what a from-scratch build
// reads, whether or not this one had to. Only reuse runs under the
// cache's lock; concurrent executions that both miss both build, and the
// later one's table is kept.
func (c *Compiled) buildJoin(ji int) (side buildSide, scanned int64) {
	j := c.joins[ji]
	rows := j.dim.Table().Rows()
	cands := j.narrowing(rows)
	scanned = rows
	if cands != nil {
		scanned = int64(len(cands))
	}
	dense := !forceHashJoins.Load()
	var overflowed *denseTab
	if dense {
		if side.dn, overflowed = c.builds.reuse(ji, j, rows); side.dn != nil {
			return side, scanned
		}
	}
	var read int64
	scan := func(visit func(run *dimRun, i int)) {
		j.eachRow(0, rows, cands, &read, visit)
	}
	if dense {
		var dom keyDomain
		scan(dom.note)
		if t := newDenseTab(j, &dom, overflowed); t != nil {
			fits := true
			scan(func(run *dimRun, i int) { fits = fits && t.add(run, i) })
			// A key can only miss the domain just measured when a writer
			// changed it in between; such a build is hashed like any other
			// build over updated columns.
			if fits {
				t.elideIdx()
				var keep buildEntry
				if j.appendOnly() {
					keep = buildEntry{tab: t, built: rows, preds: slices.Clone(j.preds)}
				}
				c.builds.rebuilt(ji, keep, read)
				side.dn = t
				return side, scanned
			}
		}
	}
	// Presize for the rows that will actually be visited; a predicated
	// un-narrowed build stays small and grows to its matches, keeping
	// selective tables cache-resident.
	n0 := int(rows)
	if len(j.preds) > 0 {
		n0 = 0
	}
	if cands != nil {
		n0 = len(cands)
	}
	if nkey := len(j.keyCols); nkey == 1 {
		side.j1.init(n0, len(j.payCols))
		scan(func(run *dimRun, i int) {
			k := run.key(0, i)
			side.j1.add(k, hash1(k), hash1, run, i)
		})
	} else {
		hash := func(k jkey) uint64 { return hashJK(&k, nkey) }
		side.jK.init(n0, len(j.payCols))
		scan(func(run *dimRun, i int) {
			var k jkey
			for d := range run.keys {
				k[d] = run.key(d, i)
			}
			side.jK.add(k, hashJK(&k, nkey), hash, run, i)
		})
	}
	c.builds.rebuilt(ji, buildEntry{}, read)
	return side, scanned
}
