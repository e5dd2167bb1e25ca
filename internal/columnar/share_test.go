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
	row := lo
	if _, err := tab.AppendColumns(hi-lo, ts, func(_ int, dst []int64) error {
		for i := range dst {
			dst[i] = row + int64(i)
		}
		if row += int64(len(dst)); row == hi { // the column's last run
			row = lo
		}
		return nil
	}); err != nil {
		panic(err)
	}
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
// switch-then-sync (bench/probe.go's). What the replica costs is the chunks
// every twin has claimed away from it: it lists the rest, and no write of
// a twin or of its own lands in memory another directory lists.
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

	// The replica is a third lister: it absorbs a snapshot by listing every
	// chunk the twins share, the partial tail too, and owns a chunk only
	// once all twins have claimed theirs away from it.
	rt := NewTable(intSchema("r", "a", "b"), 0)
	rep := NewReplica(rt)
	appendSeq(rt, 0, 2*ChunkSize+7, 1)
	rsw := rt.Switch()
	if _, aliased := rep.CopyInserts(rsw.Snapshot, 0, rsw.SnapshotRows); aliased != rsw.SnapshotRows*2*WordBytes {
		t.Fatalf("prime listed %d bytes, want all %d", aliased, rsw.SnapshotRows*2*WordBytes)
	}
	wantRep := func(when string, own int64) {
		t.Helper()
		if shared, got := rep.Bytes(); got != own*chunkBytes || shared != (2*3-own)*chunkBytes {
			t.Fatalf("%s: replica %d shared, %d own; want %d chunks of its own of 6", when, shared, got, own)
		}
	}
	wantRep("after the prime", 0)

	// The hard case. An update that stores the value the cell already holds
	// splits the active twin; the sync then stores nothing, so after the
	// switch the new active twin shares the chunk with the replica alone. Its
	// next update must still get a copy, or it lands in replica memory.
	rt.UpdateCell(5, 0, 5, 2)
	if n := rt.SyncTo(rt.ActiveIndex(), lockNothing); n != 1 {
		t.Fatalf("sync copied %d rows, want 1", n)
	}
	rt.Switch()
	wantRep("after the equal-value update, sync and switch", 0)
	rt.UpdateCell(5, 0, -5, 3)
	if got := rep.Col(0).Load(5); got != 5 {
		t.Fatalf("the replica reads %d at row 5 before absorbing the update: the store landed in its chunk", got)
	}
	wantRep("after the second twin's update", 1)

	// The ETL of that update stores into the chunk the replica now owns alone
	// and skips the column whose chunk is still the snapshot's.
	rt.SyncTo(rt.ActiveIndex(), lockNothing)
	rsw = rt.Switch()
	if _, aliased := rep.CopyRow(rsw.Snapshot, 5); aliased != WordBytes || rep.Col(0).Load(5) != -5 {
		t.Fatalf("CopyRow left %d bytes unstored and stored %d; want column b skipped and -5", aliased, rep.Col(0).Load(5))
	}
	wantRep("after the update's ETL", 1)

	// Appends go on filling the tail chunk the replica lists, above its
	// watermark, and the next absorb finds the rows there already.
	appendSeq(rt, rsw.SnapshotRows, rsw.SnapshotRows+100, 4)
	rsw = rt.Switch()
	if _, aliased := rep.CopyInserts(rsw.Snapshot, rep.Rows(), rsw.SnapshotRows); aliased != 100*2*WordBytes {
		t.Fatalf("the tail's absorb listed %d bytes, want %d", aliased, 100*2*WordBytes)
	}
	for r := int64(0); r < rep.Rows(); r++ {
		want := r
		if r == 5 {
			want = -5
		}
		if rep.Col(0).Load(r) != want || rep.Col(1).Load(r) != r {
			t.Fatalf("replica row %d = (%d, %d), want (%d, %d)", r, rep.Col(0).Load(r), rep.Col(1).Load(r), want, r)
		}
	}
	wantRep("after the tail's absorb", 1)

	// A batch reusing an old snapshot set absorbs from an instance a later
	// switch has re-activated: here the active twin, updated in a chunk and
	// in the tail the replica lists with the other twin, unsynced. The
	// replica must take copies, not store into the other twin's memory.
	act := rt.ActiveIndex()
	old := rep.Rows()
	rt.UpdateCell(ChunkSize+3, 1, -3, 5)
	appendSeq(rt, old, old+10, 6)
	rt.UpdateCell(old+2, 1, -2, 7)
	if _, aliased := rep.CopyRow(rt.Active(), ChunkSize+3); aliased != WordBytes || rep.Col(1).Load(ChunkSize+3) != -3 {
		t.Fatalf("CopyRow from the active twin left %d bytes unstored and stored %d", aliased, rep.Col(1).Load(ChunkSize+3))
	}
	if _, aliased := rep.CopyInserts(rt.Active(), old, old+10); aliased != 10*WordBytes || rep.Col(1).Load(old+2) != -2 {
		t.Fatalf("CopyInserts from the active twin listed %d bytes and stored %d", aliased, rep.Col(1).Load(old+2))
	}
	if a, b := rt.ReadCell(1-act, ChunkSize+3, 1), rt.ReadCell(1-act, old+2, 1); a != ChunkSize+3 || b != old+2 {
		t.Fatalf("the unsynced twin reads %d and %d: the replica stored into its chunks", a, b)
	}
	wantRep("after absorbing from the active twin", 3)
}

// TestUnshareUnderScanAppendAndCommit races everything that meets at a
// shared chunk. Scans read the snapshot twin and the replica with plain
// loads (under -race, any in-place store to memory they still list is a
// report) and must see the values the snapshot was taken with; two
// committers make the first updates of the same chunks at the same moment,
// the second of them the tail chunk an appender is filling and all three
// directories list; the appender goes on across two chunk boundaries.
// Afterwards no update is lost (a copy taken over a concurrent store would
// lose it), appended rows are in both twins, and each updated chunk was
// copied once. Then the same under a looping exchange — sync, switch behind
// a commit barrier, replica absorb — with a scan of the replica beside it.
func TestUnshareUnderScanAppendAndCommit(t *testing.T) {
	tab := NewTable(intSchema("t", "k", "v"), 0)
	rep := NewReplica(tab)
	const (
		loaded = ChunkSize + ChunkSize/2 // rows of the snapshot: a full chunk and half the tail
		total  = 3*ChunkSize + 11
		bump   = 1 << 40
		hot    = 3*ChunkSize - 1500      // the second round of updates: every other row from here to total
		grown  = total + ChunkSize + 100 // the second round of appends: rows up to here
	)
	appendSeq(tab, 0, loaded, 1)
	sw := tab.Switch()
	rep.CopyInserts(sw.Snapshot, 0, sw.SnapshotRows)

	// Timestamps are each goroutine's own: a clock they shared would order
	// their accesses for the race detector where the table's locks do not.
	var stop atomic.Bool
	start := make(chan struct{})
	var scans, writers sync.WaitGroup

	for _, src := range []interface{ Col(int) *Words }{sw.Snapshot, rep} {
		scans.Add(1)
		go func() {
			defer scans.Done()
			<-start
			for done := false; !done; done = stop.Load() {
				for c := 0; c < 2; c++ {
					src.Col(c).Scan(0, sw.SnapshotRows, func(vals []int64, base int64) {
						for i, v := range vals {
							if v != base+int64(i) {
								t.Errorf("scan of %T: row %d col %d = %d", src, base+int64(i), c, v)
								return
							}
						}
					})
				}
			}
		}()
	}

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
	// The first commits a cell at a time, the second three rows a batch
	// through UpdateCells, whose batches straddle the chunk boundary.
	for u := int64(0); u < 2; u++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			<-start
			var cells []Cell
			for row := ChunkSize - 2000 + u; row < loaded; row += 2 {
				if u == 0 {
					tab.BeginApply()
					tab.UpdateCell(row, 1, row+bump, uint64(3+row))
					tab.EndApply()
					continue
				}
				if cells = append(cells, Cell{Row: row, Col: 1, Val: row + bump}); len(cells) == 3 || row+2 >= loaded {
					tab.BeginApply()
					tab.UpdateCells(cells, uint64(3+row))
					tab.EndApply()
					cells = cells[:0]
				}
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
	// the stores made into the first. The replica still lists all four of
	// its chunks with the snapshot twin.
	if shared, private := tab.TwinBytes(); private != 2*2*chunkBytes || shared != (2*4-2)*chunkBytes {
		t.Fatalf("TwinBytes = %d shared, %d private; want 2 chunks held twice of 8", shared, private)
	}
	if shared, own := rep.Bytes(); shared != 2*2*chunkBytes || own != 0 {
		t.Fatalf("replica Bytes = %d shared, %d own; want its 4 chunks listed with a twin", shared, own)
	}
	w, twin := tab.Active().Col(1), tab.Inactive().Col(1)
	own := &w.Slice(0, 1)[0]
	tab.unshare(w, 0, twin, nil)
	if &w.Slice(0, 1)[0] != own {
		t.Fatal("unshare copied a chunk that was already the active twin's own")
	}

	// The exchange cycle the way rde.Exchange runs it: the drain while
	// commits flow and the residual, the switch, then the replica's update
	// copies under the scan latch and its insert absorb beside the scans.
	// The update copies may take a snapshot value older than a row's bit
	// (rde keeps those bits by timestamp; here they are lost), so replica
	// scans accept either value of a v cell.
	var barrier, latch sync.RWMutex
	exchange := func() {
		latch.Lock()
		tab.SyncTo(tab.ActiveIndex(), lockNothing)
		barrier.Lock()
		tab.SyncTo(tab.ActiveIndex(), lockNothing)
		sw := tab.Switch()
		barrier.Unlock()
		lo, bits := rep.Rows(), tab.DirtyOLAP()
		bits.ForEachSet(func(i int) {
			if row := int64(i); row < lo {
				bits.Clear(i)
				rep.CopyRow(sw.Snapshot, row)
			}
		})
		latch.Unlock()
		rep.CopyInserts(sw.Snapshot, lo, sw.SnapshotRows)
	}
	exchange() // the replica lists chunks 2 and 3 of both columns with the twins
	stop.Store(false)
	start = make(chan struct{})
	var exchanging atomic.Bool
	exchanging.Store(true)

	scans.Add(1)
	go func() {
		defer scans.Done()
		<-start
		for done := false; !done; done = stop.Load() {
			latch.RLock()
			rep.Col(0).Scan(0, rep.Rows(), func(vals []int64, base int64) {
				for i, v := range vals {
					if v != base+int64(i) {
						t.Errorf("replica scan: row %d key = %d", base+int64(i), v)
						return
					}
				}
			})
			rep.Col(1).Scan(0, rep.Rows(), func(vals []int64, base int64) {
				for i, v := range vals {
					if r := base + int64(i); v != r && v != r+bump {
						t.Errorf("replica scan: row %d v = %d", r, v)
						return
					}
				}
			})
			latch.RUnlock()
		}
	}()
	scans.Add(1)
	go func() {
		defer scans.Done()
		<-start
		for exchanging.Load() {
			exchange()
		}
	}()

	writers.Add(1)
	go func() { // across the boundary of chunks 3 and 4
		defer writers.Done()
		<-start
		for lo := int64(total); lo < grown; {
			hi := min(lo+ChunkSize/5+3, grown)
			appendSeq(tab, lo, hi, 5)
			lo = hi
		}
	}()
	for u := int64(0); u < 2; u++ { // first updates of chunks 2 and 3, which the replica lists
		writers.Add(1)
		go func() {
			defer writers.Done()
			<-start
			for row := hot + 2*u; row < total; row += 4 {
				barrier.RLock()
				tab.BeginApply()
				tab.UpdateCell(row, 1, row+bump, uint64(6+row))
				tab.EndApply()
				barrier.RUnlock()
			}
		}()
	}

	close(start)
	writers.Wait()
	exchanging.Store(false)
	stop.Store(true)
	scans.Wait()
	exchange()

	if rep.Rows() != grown {
		t.Fatalf("replica watermark = %d, want %d", rep.Rows(), grown)
	}
	for r := int64(0); r < grown; r++ {
		want := r
		if r >= ChunkSize-2000 && r < loaded || r >= hot && r < total && (r-hot)%2 == 0 {
			want = r + bump
		}
		for k := 0; k < 2; k++ {
			if got := tab.ReadCell(k, r, 1); got != want {
				t.Fatalf("instance %d row %d = %d, want %d: an update was lost across the exchange", k, r, got, want)
			}
			if got := tab.ReadCell(k, r, 0); got != r {
				t.Fatalf("instance %d row %d key = %d", k, r, got)
			}
		}
		if got := rep.Col(0).Load(r); got != r {
			t.Fatalf("replica row %d key = %d", r, got)
		}
	}
	// Column k was never updated: the replica lists each of its chunks with
	// both twins, however the absorbs fell.
	for r := int64(0); r < grown; r += ChunkSize {
		if !rep.Col(0).sharesChunk(tab.Instance(0).Col(0), r) || !rep.Col(0).sharesChunk(tab.Instance(1).Col(0), r) {
			t.Fatalf("the replica holds a copy of key chunk %d", r>>chunkShift)
		}
	}
	if shared, private := tab.TwinBytes(); private != 2*4*chunkBytes || shared != (2*5-4)*chunkBytes {
		t.Fatalf("TwinBytes = %d shared, %d private; want 4 chunks held twice of 10", shared, private)
	}
}
