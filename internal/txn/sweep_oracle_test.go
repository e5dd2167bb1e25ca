package txn

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/wal"
)

// TestPinnedReadersMatchKeepEverything is the sweep oracle: readers pinned
// at random snapshots read every cell, again and again, while writers commit
// and their pre-image pushes trim chains and sweep the rows nobody can read
// any more. Two or three rows share each version-store shard, so a push
// sweeps its neighbours' chains as well as its own. Every read is held,
// after the run, to a reference that keeps every version: the commit log,
// replayed cell by cell. A pushed version missing, pushed late, or reclaimed
// while a snapshot can still reach it shows as a read that disagrees.
func TestPinnedReadersMatchKeepEverything(t *testing.T) {
	const (
		rows    = 2*128 + 3
		width   = 2
		writers = 3
		readers = 2
		perW    = 200
		// The writers run on until the readers have read this many.
		minSnaps = 20
	)
	m := NewManager()
	cols := make([]columnar.ColumnDef, width)
	for c := range cols {
		cols[c] = columnar.ColumnDef{Name: string(rune('a' + c)), Type: columnar.Int64}
	}
	tab := columnar.NewTable(columnar.Schema{Name: "sweep", Columns: cols}, rows)
	initial := func(row int64, col int) int64 { return row*width + int64(col) }
	rs := make([][]int64, rows)
	for r := range rs {
		rs[r] = make([]int64, width)
		for c := range rs[r] {
			rs[r][c] = initial(int64(r), c)
		}
	}
	tab.AppendRows(rs, 0)
	ref := m.Register(tab)
	fs := wal.NewMemFS()
	l, err := wal.Open(fs, "wal.log", wal.SyncNever, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(l)

	var (
		writing sync.WaitGroup
		read    atomic.Int64 // snapshots read in full
	)
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int64) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(w))
			for i := int64(0); i < perW || read.Load() < minSnaps; i++ {
				// One to three rows; a row's cells are sometimes written
				// apart, so Commit meets the same row twice.
				picks := make([]int64, 1+rng.Intn(3))
				for k := range picks {
					picks[k] = rng.Int63n(rows)
				}
				val := (w+1)<<32 | i<<4
				if _, err := m.RunWithRetry(100_000, func(tx *Txn) error {
					for k, row := range picks {
						if err := tx.Write(ref, row, rng.Intn(width), val+int64(k)); err != nil {
							return err
						}
					}
					return tx.Write(ref, picks[0], rng.Intn(width), val+8)
				}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(int64(w))
	}

	// snap is what one pinned reader read: every cell, as of begin.
	type snap struct {
		begin uint64
		cells []int64
	}
	var (
		snapsMu sync.Mutex
		snaps   []snap
		done    = make(chan struct{})
		reading sync.WaitGroup
		bad     atomic.Int64
	)
	// report keeps a broken store from flooding the log; the readers read
	// on, so the writers still see minSnaps.
	report := func(format string, args ...any) {
		if bad.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(seed int64) {
			defer reading.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				tx := m.Begin()
				s := snap{begin: tx.Begin(), cells: make([]int64, rows*width)}
				// Pinned for one to four passes, the writers running on
				// between them.
				for pass, passes := 0, 1+rng.Intn(4); pass < passes; pass++ {
					for i := 0; i < rng.Intn(50); i++ {
						runtime.Gosched()
					}
					for row := int64(0); row < rows; row++ {
						for col := 0; col < width; col++ {
							v, ok := tx.Read(ref, row, col)
							if !ok {
								report("row %d invisible to snapshot %d", row, s.begin)
							}
							if i := row*width + int64(col); pass == 0 {
								s.cells[i] = v
							} else if v != s.cells[i] {
								report("snapshot %d read row %d col %d as %d, then %d", s.begin, row, col, s.cells[i], v)
							}
						}
					}
				}
				tx.Abort()
				read.Add(1)
				snapsMu.Lock()
				snaps = append(snaps, s)
				snapsMu.Unlock()
			}
		}(int64(100 + r))
	}
	writing.Wait()
	close(done)
	reading.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The reference: each cell's committed values in commit order.
	type committed struct {
		ts  uint64
		val int64
	}
	history := make([][]committed, rows*width)
	f, err := fs.Open("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := wal.Replay(f, 0, func(_ int64, rec *wal.Record) error {
		for _, op := range rec.Ops {
			i := op.Row*width + int64(op.Col)
			history[i] = append(history[i], committed{rec.CommitTS, op.Val})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, h := range history {
		sort.SliceStable(h, func(a, b int) bool { return h[a].ts < h[b].ts })
	}
	asOf := func(i int, ts uint64) int64 {
		h := history[i]
		k := sort.Search(len(h), func(k int) bool { return h[k].ts > ts })
		if k == 0 {
			return initial(int64(i/width), i%width)
		}
		return h[k-1].val
	}
	for _, s := range snaps {
		for i, got := range s.cells {
			if want := asOf(i, s.begin); got != want {
				t.Fatalf("snapshot %d read row %d col %d as %#x; kept versions say %#x",
					s.begin, i/width, i%width, got, want)
			}
		}
	}
}
