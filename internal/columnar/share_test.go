package columnar

import (
	"sync"
	"sync/atomic"
	"testing"
)

func intSchema(name string, cols ...string) Schema {
	s := Schema{Name: name}
	for _, c := range cols {
		s.Columns = append(s.Columns, ColumnDef{Name: c, Type: Int64})
	}
	return s
}

// appendSeq appends rows [lo, hi) whose every cell holds its row number.
func appendSeq(tab *Table, lo, hi int64, ts uint64) {
	cols := make([][]int64, len(tab.Schema().Columns))
	for c := range cols {
		cols[c] = make([]int64, hi-lo)
		for i := range cols[c] {
			cols[c][i] = lo + int64(i)
		}
	}
	tab.AppendColumns(cols, ts)
}

func twinsEqual(t *testing.T, tab *Table) {
	t.Helper()
	for r := int64(0); r < tab.Rows(); r++ {
		for c := range tab.Schema().Columns {
			if a, b := tab.ReadCell(0, r, c), tab.ReadCell(1, r, c); a != b {
				t.Fatalf("twins differ at row %d col %d: %d and %d", r, c, a, b)
			}
		}
	}
}

// TestTwinsShareUntilFirstUpdate: what the second twin costs is the chunks
// updates have landed in and nothing else — not the rest of an updated
// column, not a column the sync walked — and the sync needs no memory of
// its own in either direction: sync-then-switch (the engine's) and
// switch-then-sync (bench/probe.go's).
func TestTwinsShareUntilFirstUpdate(t *testing.T) {
	tab := NewTable(intSchema("t", "a", "b", "c", "d", "e"), 0)
	const rows = 3*ChunkSize + 100 // four chunks a column, the last one partial
	appendSeq(tab, 0, rows, 1)
	if shared, private := tab.TwinBytes(); shared != 5*4*chunkBytes || private != 0 {
		t.Fatalf("after appends alone: %d shared, %d private; want %d and 0", shared, private, 5*4*chunkBytes)
	}
	wantSplit := func(when string, chunks int64) {
		t.Helper()
		shared, private := tab.TwinBytes()
		if private != 2*chunks*chunkBytes || shared != (5*4-chunks)*chunkBytes {
			t.Fatalf("%s: %d shared, %d private; want %d chunks held twice of %d", when, shared, private, chunks, 5*4)
		}
	}

	// Column b in chunks 0 and 2 (several cells each), column d in the
	// partial tail chunk.
	for i, row := range []int64{5, 77, ChunkSize - 1, 2 * ChunkSize, 2*ChunkSize + 9} {
		tab.UpdateCell(row, 1, -row, uint64(2+i))
	}
	tab.UpdateCell(3*ChunkSize+50, 3, -1, 9)
	wantSplit("after the updates", 3)
	if got := tab.ReadCell(1-tab.ActiveIndex(), 77, 1); got != 77 {
		t.Fatalf("the snapshot twin reads %d where only the active one was updated", got)
	}

	// Appends go on filling the split tail chunk in both twins.
	appendSeq(tab, rows, rows+100, 10)
	if a, b := tab.ReadCell(0, rows+7, 3), tab.ReadCell(1, rows+7, 3); a != rows+7 || b != rows+7 {
		t.Fatalf("append into a split chunk: twins hold %d and %d, want %d", a, b, rows+7)
	}

	if n := tab.SyncTo(tab.ActiveIndex(), lockNothing); n != 6 {
		t.Fatalf("sync copied %d rows, want 6", n)
	}
	twinsEqual(t, tab)
	wantSplit("after sync-then-switch", 3)
	tab.Switch()

	// The other direction: update the new active twin — once in a chunk the
	// first twin split, once in a fresh one — switch, then sync.
	tab.UpdateCell(6, 1, -6, 11)
	tab.UpdateCell(ChunkSize+1, 1, -1, 12)
	wantSplit("after the second twin's updates", 4)
	sw := tab.Switch()
	if n := tab.SyncTo(sw.SnapshotIndex, lockNothing); n != 2 {
		t.Fatalf("sync copied %d rows, want 2", n)
	}
	twinsEqual(t, tab)
	wantSplit("after switch-then-sync", 4)
	for _, c := range []int{0, 2, 4} {
		if n := tab.ColumnUpdateCount(c); n != 0 {
			t.Fatalf("never-updated column %d counts %d", c, n)
		}
	}
}

// TestUnshareUnderScanAppendAndCommit races everything that meets at a
// shared chunk. A scan reads the snapshot twin with plain loads (under
// -race, any in-place store to memory it still lists is a report) and must
// see the values of the switch; two committers make the first updates of
// the same chunks at the same moment, the second of them the tail chunk an
// appender is filling; the appender goes on across two chunk boundaries.
// Afterwards no update is lost (a copy taken over a concurrent store would
// lose it), appended rows are in both twins, and each updated chunk was
// copied once.
func TestUnshareUnderScanAppendAndCommit(t *testing.T) {
	tab := NewTable(intSchema("t", "k", "v"), 0)
	const (
		loaded = ChunkSize + ChunkSize/2 // rows of the snapshot: a full chunk and half the tail
		total  = 3*ChunkSize + 11
		bump   = 1 << 40
	)
	appendSeq(tab, 0, loaded, 1)
	sw := tab.Switch()

	// Timestamps are each goroutine's own: a clock they shared would order
	// their accesses for the race detector where the table's locks do not.
	var stop atomic.Bool
	start := make(chan struct{})
	var scans, writers sync.WaitGroup

	scans.Add(1)
	go func() {
		defer scans.Done()
		<-start
		for done := false; !done; done = stop.Load() {
			for c := 0; c < 2; c++ {
				sw.Snapshot.Col(c).Scan(0, sw.SnapshotRows, func(vals []int64, base int64) {
					for i, v := range vals {
						if v != base+int64(i) {
							t.Errorf("snapshot scan: row %d col %d = %d", base+int64(i), c, v)
							return
						}
					}
				})
			}
		}
	}()

	writers.Add(1)
	go func() {
		defer writers.Done()
		<-start
		for lo := int64(loaded); lo < total; {
			hi := min(lo+ChunkSize/3+5, total)
			appendSeq(tab, lo, hi, 2)
			lo = hi
		}
	}()

	// The committers take alternate rows, in step, from the end of the full
	// chunk into the tail chunk, so both first-touch each chunk together.
	for u := int64(0); u < 2; u++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			<-start
			for row := ChunkSize - 2000 + u; row < loaded; row += 2 {
				tab.BeginApply()
				tab.UpdateCell(row, 1, row+bump, uint64(3+row))
				tab.EndApply()
			}
		}()
	}

	close(start)
	writers.Wait()
	stop.Store(true)
	scans.Wait()

	if tab.Rows() != total {
		t.Fatalf("Rows = %d, want %d", tab.Rows(), total)
	}
	act := tab.ActiveIndex()
	for r := int64(0); r < total; r++ {
		want := r
		if r >= ChunkSize-2000 && r < loaded {
			want = r + bump
		}
		if got := tab.ReadCell(act, r, 1); got != want {
			t.Fatalf("active twin row %d = %d, want %d: an update or an append was lost", r, got, want)
		}
		if got := tab.ReadCell(1-act, r, 1); got != r {
			t.Fatalf("snapshot twin row %d = %d, want %d", r, got, r)
		}
		for k := 0; k < 2; k++ {
			if got := tab.ReadCell(k, r, 0); got != r {
				t.Fatalf("instance %d row %d key = %d", k, r, got)
			}
		}
	}
	// Column v split in chunks 0 and 1; column k and the chunks the appender
	// added are still one copy. A committer that finds the chunk split by
	// the time it has the lock leaves it alone — a second copy would drop
	// the stores made into the first.
	if shared, private := tab.TwinBytes(); private != 2*2*chunkBytes || shared != (2*4-2)*chunkBytes {
		t.Fatalf("TwinBytes = %d shared, %d private; want 2 chunks held twice of 8", shared, private)
	}
	w, twin := tab.Active().Col(1), tab.Inactive().Col(1)
	own := &w.Slice(0, 1)[0]
	tab.unshare(w, twin, 0)
	if &w.Slice(0, 1)[0] != own {
		t.Fatal("unshare copied a chunk that was already the active twin's own")
	}
}
