package columnar

import (
	"math/rand"
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

// appendOracle is the row-at-a-time model the table is held to: what every
// cell of both twins, every row stamp, every watermark and every update
// bit must be after any sequence of appends, in-place updates, syncs and
// switches — and which chunks the twins may still hold once: exactly those
// no update has landed in.
type appendOracle struct {
	width   int
	inst    [2][]int64 // each twin's cells, row-major, held apart whatever the table does
	ts      []uint64
	active  int
	visible [2]int64
	pending [2]map[int64]bool // rows updated in a twin and not yet synced out of it
	updated map[int64]bool    // rows updated since the (never run) ETL
	split   map[[2]int]bool   // (column, chunk) pairs an update has landed in
	chunks  int               // chunks the directories were created with
}

func newAppendOracle(width int, capHint int64) *appendOracle {
	return &appendOracle{
		width:   width,
		pending: [2]map[int64]bool{{}, {}},
		updated: map[int64]bool{},
		split:   map[[2]int]bool{},
		chunks:  int((capHint + ChunkSize - 1) / ChunkSize),
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
}

func (o *appendOracle) sync(src int) int {
	n := len(o.pending[src])
	for row := range o.pending[src] {
		lo, hi := int(row)*o.width, int(row+1)*o.width
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
// since), then the counters and the sharing.
func (o *appendOracle) check(t *testing.T, tab *Table, from int64) {
	t.Helper()
	if tab.Rows() != o.rows() || tab.ActiveIndex() != o.active {
		t.Fatalf("Rows = %d active = %d, want %d and %d", tab.Rows(), tab.ActiveIndex(), o.rows(), o.active)
	}
	for k := 0; k < 2; k++ {
		if got := tab.Instance(k).Visible(); got != o.visible[k] {
			t.Fatalf("instance %d visible = %d, want %d", k, got, o.visible[k])
		}
		if got := tab.Instance(k).DirtyCount(); got != len(o.pending[k]) {
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
	}
	// An append sets no update bit: the appended rows are fresh by lying
	// above the replica's watermark, and are counted once, as inserts.
	if n := tab.DirtyOLAP().Count(); n != len(o.updated) {
		t.Fatalf("%d update bits set, want one per updated row (%d)", n, len(o.updated))
	}
	if st := tab.FreshSince(from); st.InsertedRows != o.rows()-from || st.UpdatedRows != below {
		t.Fatalf("fresh above watermark %d = %+v, want %d inserted and %d updated", from, st, o.rows()-from, below)
	}
	// The twins hold a chunk twice if and only if an update landed in it.
	perCol := max(o.chunks, int((o.rows()+ChunkSize-1)/ChunkSize))
	all := int64(perCol * len(tab.Schema().Columns))
	shared, private := tab.TwinBytes()
	if split := int64(len(o.split)); private != 2*split*chunkBytes || shared != (all-split)*chunkBytes {
		t.Fatalf("TwinBytes = %d shared, %d private; want %d chunks shared and %d held twice",
			shared, private, all-split, split)
	}
}

// TestAppendMatchesRowAtATimeOracle drives both append entry points with
// random batch sizes that land on, before and across chunk boundaries,
// interleaved with switches (with and without the sync that precedes them
// in the engine) and with in-place updates: a chunk's first update lands
// mid-chunk in one that is full, in the tail chunk that later appends go on
// filling in both twins, and — the unsynced switches — in a chunk the other
// twin was the first to split.
func TestAppendMatchesRowAtATimeOracle(t *testing.T) {
	sizes := []int{0, 1, 2, 10, 63, 64, 65, 1000, ChunkSize / 3, ChunkSize - 1, ChunkSize, ChunkSize + 1, 2*ChunkSize + 3}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := Schema{Name: "a", Columns: []ColumnDef{
			{Name: "x", Type: Int64}, {Name: "y", Type: Int64}, {Name: "z", Type: Int64},
		}}
		capHint := int64(rng.Intn(100))
		tab := NewTable(schema, capHint)
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
				got = tab.AppendColumns(cols, ts)
			}
			if want := o.append(batch, ts); got != want {
				t.Fatalf("seed %d step %d: append of %d rows returned %d, want %d", seed, step, n, got, want)
			}
			o.check(t, tab, from)
			// Seed 1 never updates: every chunk stays shared to the end.
			for u := rng.Intn(6); seed > 1 && u > 0 && o.rows() > 0; u-- {
				row := rng.Int63n(o.rows())
				if rng.Intn(2) == 0 { // in the tail chunk, which appends are still filling
					row = o.rows() - 1 - rng.Int63n(min(o.rows(), ChunkSize/2))
				}
				col := rng.Intn(2) // column z is never updated
				next++
				ts++
				tab.UpdateCell(row, col, next, ts)
				o.update(row, col, next, ts)
				o.check(t, tab, o.rows())
			}
			if rng.Intn(4) == 0 {
				if rng.Intn(2) == 0 {
					if got, want := tab.SyncTo(o.active, lockNothing), o.sync(o.active); got != want {
						t.Fatalf("seed %d step %d: sync copied %d rows, want %d", seed, step, got, want)
					}
				}
				tab.Switch()
				o.doSwitch()
				o.check(t, tab, o.rows())
			}
		}
		o.check(t, tab, 0)
		if n := tab.ColumnUpdateCount(2); n != 0 {
			t.Fatalf("seed %d: never-updated column counts %d", seed, n)
		}
	}
}

// TestAppendRejectsWrongShapes: a short row or a ragged column set panics
// before anything is stored or published.
func TestAppendRejectsWrongShapes(t *testing.T) {
	tab := NewTable(testSchema(), 4)
	for name, fn := range map[string]func(){
		"short row":      func() { tab.AppendRows([][]int64{{1, 2, 3}, {1, 2}}, 1) },
		"missing column": func() { tab.AppendColumns([][]int64{{1}, {2}}, 1) },
		"ragged columns": func() { tab.AppendColumns([][]int64{{1, 2}, {1, 2}, {1}}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
		if tab.Rows() != 0 {
			t.Fatalf("%s: %d rows published", name, tab.Rows())
		}
	}
}
