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

// appendOracle is the row-at-a-time model AppendRows and AppendColumns are
// held to: what every cell of both twins, every row stamp and every
// watermark must be after any sequence of appends and switches.
type appendOracle struct {
	rows    [][]int64
	ts      []uint64
	active  int
	visible [2]int64
}

func (o *appendOracle) append(batch [][]int64, ts uint64) int64 {
	first := int64(len(o.rows))
	for _, r := range batch {
		o.rows = append(o.rows, r)
		o.ts = append(o.ts, ts)
	}
	if len(batch) > 0 {
		o.visible[o.active] = int64(len(o.rows))
	}
	return first
}

func (o *appendOracle) doSwitch() {
	o.active = 1 - o.active
	o.visible[o.active] = int64(len(o.rows))
}

func (o *appendOracle) check(t *testing.T, tab *Table, from int64) {
	t.Helper()
	if tab.Rows() != int64(len(o.rows)) || tab.ActiveIndex() != o.active {
		t.Fatalf("Rows = %d active = %d, want %d and %d", tab.Rows(), tab.ActiveIndex(), len(o.rows), o.active)
	}
	for k := 0; k < 2; k++ {
		if got := tab.Instance(k).Visible(); got != o.visible[k] {
			t.Fatalf("instance %d visible = %d, want %d", k, got, o.visible[k])
		}
	}
	for r := from; r < int64(len(o.rows)); r++ {
		for c, want := range o.rows[r] {
			for k := 0; k < 2; k++ {
				if got := tab.ReadCell(k, r, c); got != want {
					t.Fatalf("instance %d row %d col %d = %d, want %d", k, r, c, got, want)
				}
			}
		}
		if got := tab.RowTS(r); got != o.ts[r] {
			t.Fatalf("row %d stamp = %d, want %d", r, got, o.ts[r])
		}
	}
	// An append sets no update bit: the appended rows are fresh by lying
	// above the replica's watermark, and are counted once, as inserts.
	if n := tab.DirtyOLAP().Count(); n != 0 {
		t.Fatalf("appends set %d update bits, want none", n)
	}
	if st := tab.FreshSince(from); st.InsertedRows != int64(len(o.rows))-from || st.UpdatedRows != 0 {
		t.Fatalf("fresh above watermark %d = %+v, want %d inserted and 0 updated", from, st, int64(len(o.rows))-from)
	}
}

// TestAppendMatchesRowAtATimeOracle drives both append entry points with
// random batch sizes that land on, before and across chunk boundaries,
// interleaved with switches.
func TestAppendMatchesRowAtATimeOracle(t *testing.T) {
	sizes := []int{0, 1, 2, 10, 63, 64, 65, ChunkSize - 1, ChunkSize, ChunkSize + 1, 2*ChunkSize + 3}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := Schema{Name: "a", Columns: []ColumnDef{
			{Name: "x", Type: Int64}, {Name: "y", Type: Int64}, {Name: "z", Type: Int64},
		}}
		tab := NewTable(schema, int64(rng.Intn(100)))
		o := &appendOracle{}
		var next int64
		for step := 0; step < 40 && len(o.rows) < 4*ChunkSize; step++ {
			n := sizes[rng.Intn(len(sizes))]
			if rng.Intn(3) == 0 { // finish exactly on a boundary, or one short
				n = ChunkSize - len(o.rows)%ChunkSize - rng.Intn(2)
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
			ts := uint64(step + 1)
			from := int64(len(o.rows))
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
			if rng.Intn(4) == 0 {
				tab.Switch()
				o.doSwitch()
				o.check(t, tab, int64(len(o.rows)))
			}
		}
		o.check(t, tab, 0)
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
