package columnar

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWordsGrowWhileReading: growers push several columns past chunk
// boundaries while readers Load and Scan every published row. A reader
// never takes a lock, so all it has is the publication order — chunks
// allocated, then the directory stored, then (by the writer) cells
// written, then the row count — and a directory that lists a chunk before
// it exists, or a chunk that moves, shows up as a wrong value or a panic.
func TestWordsGrowWhileReading(t *testing.T) {
	const (
		cols    = 3
		growers = 3
		step    = ChunkSize/2 + 17 // straddles a boundary every other step
		total   = 5 * ChunkSize
	)
	words := make([]*Words, cols)
	for c := range words {
		words[c] = newWords(0)
	}
	var published atomic.Int64
	var mu sync.Mutex // the writers' append lock; readers never see it
	var wg sync.WaitGroup
	for g := 0; g < growers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Grow outside the lock too, so ensure races ensure.
				for _, w := range words {
					w.ensure(published.Load() + step)
				}
				mu.Lock()
				lo := published.Load()
				if lo >= total {
					mu.Unlock()
					return
				}
				hi := lo + step
				for c, w := range words {
					w.ensure(hi)
					for r := lo; r < hi; r++ {
						w.Store(r, r*7+int64(c))
					}
				}
				published.Store(hi)
				mu.Unlock()
			}
		}()
	}
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				n := published.Load()
				for c, w := range words {
					for i := 0; i < 64 && n > 0; i++ {
						r := rng.Int63n(n)
						if got := w.Load(r); got != r*7+int64(c) {
							t.Errorf("Load(col %d, row %d) = %d with %d rows published", c, r, got, n)
							return
						}
					}
					w.Scan(0, n, func(vals []int64, base int64) {
						for j, v := range vals {
							if r := base + int64(j); v != r*7+int64(c) {
								t.Errorf("Scan(col %d) row %d = %d with %d rows published", c, r, v, n)
								return
							}
						}
					})
				}
				if n >= total || t.Failed() {
					return
				}
			}
		}(int64(rd))
	}
	wg.Wait()
}

// appendOracle is the row-at-a-time model the table and its replica are
// held to: what every cell of both twins and of the replica, every row
// stamp, every watermark and every update bit must be after any sequence
// of appends, in-place updates, syncs, switches and replica absorbs — and
// which chunks the three directories may still list together: the twins
// exactly those no update has landed in, the replica those both twins
// listed when it reached them and no writer has claimed since.
type appendOracle struct {
	width   int
	inst    [2][]int64 // each twin's cells, row-major, held apart whatever the table does
	ts      []uint64
	active  int
	visible [2]int64
	pending [2]map[int64]bool // rows updated in a twin and not yet synced out of it
	updated map[int64]bool    // rows ever updated
	split   map[[2]int]bool   // (column, chunk) pairs an update has landed in
	chunks  int               // chunks the directories were created with

	rep     []int64        // the replica's cells, row-major: what it last absorbed
	repRows int64          // its watermark
	repDir  int            // chunks in each of its column directories
	repWith map[[2]int]int // (column, chunk) → bit k set while twin k lists the replica's chunk; absent: the replica's own
}

func newAppendOracle(width int, capHint int64) *appendOracle {
	return &appendOracle{
		width:   width,
		pending: [2]map[int64]bool{{}, {}},
		updated: map[int64]bool{},
		split:   map[[2]int]bool{},
		chunks:  int((capHint + ChunkSize - 1) / ChunkSize),
		repWith: map[[2]int]int{},
	}
}

// drop records that twin k's directory no longer lists the replica's chunk
// (column c, chunk j): k has claimed it for an in-place store.
func (o *appendOracle) drop(k, c, j int) {
	key := [2]int{c, j}
	if m := o.repWith[key] &^ (1 << k); m != 0 {
		o.repWith[key] = m
	} else {
		delete(o.repWith, key)
	}
}

// claim is the replica's claim on its chunk (c, j) before it stores twin
// k's values there. It reports whether the chunk is k's own memory, which
// holds the values already; otherwise the replica holds a copy from now on.
func (o *appendOracle) claim(k, c, j int) (listed bool) {
	if o.repWith[[2]int{c, j}]&(1<<k) != 0 {
		return true
	}
	delete(o.repWith, [2]int{c, j})
	return false
}

// absorb is CopyInserts(instance k, lo, hi); it returns the bytes listed.
func (o *appendOracle) absorb(k int, lo, hi int64) (aliased int64) {
	if hi <= lo {
		return 0
	}
	dir := int((hi + ChunkSize - 1) / ChunkSize)
	for c := 0; c < o.width; c++ {
		for j := o.repDir; j < dir; j++ {
			if !o.split[[2]int{c, j}] {
				o.repWith[[2]int{c, j}] = 3
			}
		}
		for r := lo; r < hi; {
			j := int(r / ChunkSize)
			end := min(int64(j+1)*ChunkSize, hi)
			if o.claim(k, c, j) {
				aliased += (end - r) * WordBytes
			}
			r = end
		}
	}
	o.repDir = max(o.repDir, dir)
	a, b := int(lo)*o.width, int(hi)*o.width
	if len(o.rep) < b {
		o.rep = append(o.rep, make([]int64, b-len(o.rep))...)
	}
	copy(o.rep[a:b], o.inst[k][a:b])
	o.repRows = max(o.repRows, hi)
	return aliased
}

// copyRow is CopyRow(instance k, row); it returns the bytes not stored.
func (o *appendOracle) copyRow(k int, row int64) (aliased int64) {
	for c := 0; c < o.width; c++ {
		if o.claim(k, c, int(row/ChunkSize)) {
			aliased += WordBytes
		}
		o.rep[int(row)*o.width+c] = o.inst[k][int(row)*o.width+c]
	}
	return aliased
}

func (o *appendOracle) checkReplicaRow(t *testing.T, rep *Replica, r int64) {
	for c, want := range o.rep[int(r)*o.width : int(r+1)*o.width] {
		if got := rep.Col(c).Load(r); got != want {
			t.Helper()
			t.Fatalf("replica row %d col %d = %d, want %d", r, c, got, want)
		}
	}
}

func (o *appendOracle) rows() int64 { return int64(len(o.ts)) }

func (o *appendOracle) append(batch [][]int64, ts uint64) int64 {
	first := o.rows()
	for _, r := range batch {
		for k := range o.inst {
			o.inst[k] = append(o.inst[k], r...)
		}
		o.ts = append(o.ts, ts)
	}
	if len(batch) > 0 {
		o.visible[o.active] = o.rows()
	}
	return first
}

func (o *appendOracle) update(row int64, col int, v int64, ts uint64) {
	o.inst[o.active][int(row)*o.width+col] = v
	o.ts[row] = ts
	o.pending[o.active][row] = true
	o.updated[row] = true
	o.split[[2]int{col, int(row / ChunkSize)}] = true
	o.drop(o.active, col, int(row/ChunkSize))
}

func (o *appendOracle) sync(src int) int {
	n := len(o.pending[src])
	for row := range o.pending[src] {
		lo, hi := int(row)*o.width, int(row+1)*o.width
		for c := 0; c < o.width; c++ {
			if o.inst[src][lo+c] != o.inst[1-src][lo+c] {
				o.drop(1-src, c, int(row/ChunkSize))
			}
		}
		copy(o.inst[1-src][lo:hi], o.inst[src][lo:hi])
	}
	o.pending[src] = map[int64]bool{}
	return n
}

func (o *appendOracle) doSwitch() {
	o.active = 1 - o.active
	o.visible[o.active] = o.rows()
}

func (o *appendOracle) checkRow(t *testing.T, tab *Table, r int64) {
	for k := range o.inst {
		for c, want := range o.inst[k][int(r)*o.width : int(r+1)*o.width] {
			if got := tab.ReadCell(k, r, c); got != want {
				t.Helper() // here and not above: it costs more than the row
				t.Fatalf("instance %d row %d col %d = %d, want %d", k, r, c, got, want)
			}
		}
	}
	if got := tab.RowTS(r); got != o.ts[r] {
		t.Helper()
		t.Fatalf("row %d stamp = %d, want %d", r, got, o.ts[r])
	}
}

// check compares the rows from `from` up and every row ever updated (the
// rest were compared when they were appended and nothing has written them
// since), in the twins and in the replica, then the counters and the
// sharing.
func (o *appendOracle) check(t *testing.T, tab *Table, rep *Replica, from int64) {
	t.Helper()
	if tab.Rows() != o.rows() || tab.ActiveIndex() != o.active {
		t.Fatalf("Rows = %d active = %d, want %d and %d", tab.Rows(), tab.ActiveIndex(), o.rows(), o.active)
	}
	for k := 0; k < 2; k++ {
		if got := tab.inst[k].Visible(); got != o.visible[k] {
			t.Fatalf("instance %d visible = %d, want %d", k, got, o.visible[k])
		}
		if got := tab.inst[k].DirtyCount(); got != len(o.pending[k]) {
			t.Fatalf("instance %d carries %d update-indication bits, want %d", k, got, len(o.pending[k]))
		}
	}
	for r := from; r < o.rows(); r++ {
		o.checkRow(t, tab, r)
	}
	below := int64(0)
	for r := range o.updated {
		o.checkRow(t, tab, r)
		if r < from {
			below++
		}
		if r < o.repRows {
			o.checkReplicaRow(t, rep, r)
		}
	}
	// An append sets no update bit: the appended rows are fresh by lying
	// above the replica's watermark, and are counted once, as inserts. (No
	// ETL runs here to clear the bits.)
	if n := tab.DirtyOLAP().Count(); n != len(o.updated) {
		t.Fatalf("%d update bits set, want one per updated row (%d)", n, len(o.updated))
	}
	if st := tab.FreshSince(from); st.InsertedRows != o.rows()-from || st.UpdatedRows != below {
		t.Fatalf("fresh above watermark %d = %+v, want %d inserted and %d updated", from, st, o.rows()-from, below)
	}
	if rep.Rows() != o.repRows {
		t.Fatalf("replica watermark = %d, want %d", rep.Rows(), o.repRows)
	}
	// The replica lists a chunk with a twin until one of them claims it.
	all := int64(o.repDir * o.width)
	if shared, own := rep.Bytes(); shared != int64(len(o.repWith))*chunkBytes || own != (all-int64(len(o.repWith)))*chunkBytes {
		t.Fatalf("replica Bytes = %d shared, %d own; want %d chunks listed with a twin and %d of its own",
			shared, own, len(o.repWith), all-int64(len(o.repWith)))
	}
	// The twins hold a chunk twice if and only if an update landed in it.
	perCol := max(o.chunks, int((o.rows()+ChunkSize-1)/ChunkSize))
	all = int64(perCol * len(tab.Schema().Columns))
	shared, private := tab.TwinBytes()
	if split := int64(len(o.split)); private != 2*split*chunkBytes || shared != (all-split)*chunkBytes {
		t.Fatalf("TwinBytes = %d shared, %d private; want %d chunks shared and %d held twice",
			shared, private, all-split, split)
	}
}

// TestAppendMatchesRowAtATimeOracle drives both append entry points with
// random batch sizes that land on, before and across chunk boundaries,
// interleaved with switches (with and without the sync that precedes them
// in the engine), with in-place updates and with replica absorbs: a chunk's
// first update lands mid-chunk in one that is full, in the tail chunk that
// later appends go on filling in both twins, and — the unsynced switches —
// in a chunk the other twin was the first to split. The replica absorbs
// updated rows and then inserts from either twin, the way an ETL does from
// its snapshot and a batch reusing an old snapshot set does from an
// instance re-activated since; a twin that is not the source may still
// list the replica's chunk, and a sync-less switch leaves the source
// holding values that twin does not.
func TestAppendMatchesRowAtATimeOracle(t *testing.T) {
	sizes := []int{0, 1, 2, 10, 63, 64, 65, 1000, ChunkSize / 3, ChunkSize - 1, ChunkSize, ChunkSize + 1, 2*ChunkSize + 3}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := Schema{Name: "a", Columns: []ColumnDef{
			{Name: "x", Type: Int64}, {Name: "y", Type: Int64}, {Name: "z", Type: Int64},
		}}
		capHint := int64(rng.Intn(100))
		tab := NewTable(schema, capHint)
		rep := NewReplica(tab)
		o := newAppendOracle(len(schema.Columns), capHint)
		var next int64
		var ts uint64
		for step := 0; step < 60 && o.rows() < 5*ChunkSize; step++ {
			n := sizes[rng.Intn(len(sizes))]
			if rng.Intn(4) == 0 { // finish exactly on a boundary, or one short
				n = ChunkSize - int(o.rows())%ChunkSize - rng.Intn(2)
			}
			batch := make([][]int64, n)
			cols := make([][]int64, len(schema.Columns))
			for c := range cols {
				cols[c] = make([]int64, n)
			}
			for i := range batch {
				batch[i] = make([]int64, len(schema.Columns))
				for c := range batch[i] {
					next++
					batch[i][c], cols[c][i] = next, next
				}
			}
			ts++
			from := o.rows()
			var got int64
			if rng.Intn(2) == 0 {
				got = tab.AppendRows(batch, ts)
			} else {
				got = appendColumns(t, tab, cols, ts)
			}
			if want := o.append(batch, ts); got != want {
				t.Fatalf("seed %d step %d: append of %d rows returned %d, want %d", seed, step, n, got, want)
			}
			o.check(t, tab, rep, from)
			// Seed 1 never updates: every chunk stays shared to the end.
			for u := rng.Intn(6); seed > 1 && u > 0 && o.rows() > 0; u-- {
				row := rng.Int63n(o.rows())
				switch rng.Intn(3) {
				case 0: // in the tail chunk, which appends are still filling
					row = o.rows() - 1 - rng.Int63n(min(o.rows(), ChunkSize/2))
				case 1: // in a chunk the replica may list
					row = rng.Int63n(max(o.repRows, 1))
				}
				col := rng.Intn(2) // column z is never updated
				next++
				ts++
				tab.UpdateCell(row, col, next, ts)
				o.update(row, col, next, ts)
				o.check(t, tab, rep, o.rows())
			}
			if rng.Intn(3) == 0 { // the drain that runs while commits flow
				if got, want := tab.SyncTo(o.active, lockNothing), o.sync(o.active); got != want {
					t.Fatalf("seed %d step %d: sync copied %d rows, want %d", seed, step, got, want)
				}
				o.check(t, tab, rep, o.rows())
			}
			if rng.Intn(2) == 0 {
				k := 1 - o.active // the snapshot, or the instance a batch's old snapshot has become
				if rng.Intn(2) == 0 {
					k = o.active
				}
				src := tab.inst[k]
				rows := slices.Sorted(maps.Keys(o.updated))
				for _, row := range rows {
					if row < o.repRows {
						_, aliased := rep.CopyRow(src, row)
						if want := o.copyRow(k, row); aliased != want {
							t.Fatalf("seed %d step %d: CopyRow(%d) left %d bytes unstored, want %d", seed, step, row, aliased, want)
						}
					}
				}
				lo, hi := o.repRows, o.visible[k]
				bytes, aliased := rep.CopyInserts(src, lo, hi)
				if want := o.absorb(k, lo, hi); aliased != want || bytes != max(hi-lo, 0)*schema.RowBytes() {
					t.Fatalf("seed %d step %d: CopyInserts(%d, %d) = %d bytes, %d listed; want %d, %d",
						seed, step, lo, hi, bytes, aliased, max(hi-lo, 0)*schema.RowBytes(), want)
				}
				for r := lo; r < hi; r++ {
					o.checkReplicaRow(t, rep, r)
				}
				o.check(t, tab, rep, o.rows())
			}
			if rng.Intn(4) == 0 {
				if rng.Intn(2) == 0 {
					if got, want := tab.SyncTo(o.active, lockNothing), o.sync(o.active); got != want {
						t.Fatalf("seed %d step %d: sync copied %d rows, want %d", seed, step, got, want)
					}
				}
				tab.Switch()
				o.doSwitch()
				o.check(t, tab, rep, o.rows())
			}
		}
		o.check(t, tab, rep, 0)
		for r := int64(0); r < o.repRows; r++ {
			o.checkReplicaRow(t, rep, r)
		}
		if n := tab.ColumnUpdateCount(2); n != 0 {
			t.Fatalf("seed %d: never-updated column counts %d", seed, n)
		}
	}
}

// appendColumns appends cols through AppendColumns, holding fill to its
// contract: column 0's runs in row order, then column 1's, and so on, each
// run as long as its chunk and the rows allow, and each handed the offset
// of its first row in the append.
func appendColumns(t *testing.T, tab *Table, cols [][]int64, ts uint64) int64 {
	t.Helper()
	n := len(cols[0])
	base := tab.Rows()
	cur, off := 0, 0
	got, err := tab.AppendColumns(int64(n), ts, func(c int, at int64, dst []int64) error {
		if c != cur {
			if c != cur+1 || off != n {
				t.Fatalf("fill of column %d after %d of column %d's %d rows", c, off, cur, n)
			}
			cur, off = c, 0
		}
		if at != int64(off) {
			t.Fatalf("column %d: run handed offset %d, want %d", c, at, off)
		}
		if end := base + int64(off+len(dst)); len(dst) == 0 || off+len(dst) > n ||
			(end-1)>>chunkShift != (base+int64(off))>>chunkShift || end&(ChunkSize-1) != 0 && off+len(dst) != n {
			t.Fatalf("column %d: run of %d at row %d of an append of %d above %d", c, len(dst), off, n, base)
		}
		off += copy(dst, cols[c][at:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 && (cur != len(cols)-1 || off != n) {
		t.Fatalf("fill stopped at column %d row %d of %d columns, %d rows", cur, off, len(cols), n)
	}
	return got
}

// TestAppendRejectsWrongShapes: a short row panics, and a column fill that
// fails returns its error, before anything is stored or published; the
// rows a failed fill wrote are overwritten by the next append.
func TestAppendRejectsWrongShapes(t *testing.T) {
	tab := NewTable(testSchema(), 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("short row: no panic")
			}
		}()
		tab.AppendRows([][]int64{{1, 2, 3}, {1, 2}}, 1)
	}()
	if tab.Rows() != 0 {
		t.Fatalf("short row: %d rows published", tab.Rows())
	}
	const n = ChunkSize + 9
	for _, failAt := range []int{0, 1, 2} {
		errFill := errors.New("fill failed")
		calls := 0
		_, err := tab.AppendColumns(n, 1, func(c int, _ int64, dst []int64) error {
			if calls++; c == failAt && calls > 2*c+1 { // the column's second run
				return errFill
			}
			for i := range dst {
				dst[i] = -1
			}
			return nil
		})
		if err != errFill {
			t.Fatalf("fill failing in column %d: err = %v", failAt, err)
		}
		if tab.Rows() != 0 || tab.Active().Visible() != 0 {
			t.Fatalf("fill failing in column %d: %d rows, %d visible", failAt, tab.Rows(), tab.Active().Visible())
		}
	}
	row := tab.AppendRows([][]int64{{7, 8, 9}}, 2)
	if row != 0 || tab.Rows() != 1 || tab.ReadActive(0, 0) != 7 || tab.RowTS(0) != 2 {
		t.Fatalf("append after failed fills: row %d, %d rows, cell %d, ts %d",
			row, tab.Rows(), tab.ReadActive(0, 0), tab.RowTS(0))
	}
}
