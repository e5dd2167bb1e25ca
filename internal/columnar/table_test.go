package columnar

import (
	"sync"
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return Schema{Name: "t", Columns: []ColumnDef{
		{Name: "id", Type: Int64},
		{Name: "amt", Type: Float64},
		{Name: "tag", Type: String},
	}}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	row := tab.EncodeRow(42, 3.25, "hello")
	if got := row[0]; got != 42 {
		t.Fatalf("int encode = %d", got)
	}
	if got := tab.DecodeValue(1, row[1]); got != 3.25 {
		t.Fatalf("float decode = %v", got)
	}
	if got := tab.DecodeValue(2, row[2]); got != "hello" {
		t.Fatalf("string decode = %v", got)
	}
}

func TestAppendVisibility(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	tab.AppendRows([][]int64{tab.EncodeRow(1, 1.0, "a")}, 1)
	if tab.Rows() != 1 {
		t.Fatalf("Rows = %d", tab.Rows())
	}
	if tab.Active().Visible() != 1 {
		t.Fatalf("active visible = %d", tab.Active().Visible())
	}
	// Inserts are in both instances (the one chunk both list) but only
	// visible in the active one (§3.2).
	if tab.Inactive().Visible() != 0 {
		t.Fatalf("inactive visible = %d, want 0", tab.Inactive().Visible())
	}
	if got := tab.ReadCell(1-tab.ActiveIndex(), 0, 0); got != 1 {
		t.Fatalf("inactive twin lacks the insert: %d", got)
	}
}

func TestSwitchExposesInserts(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	tab.AppendRows([][]int64{tab.EncodeRow(1, 1.0, "a"), tab.EncodeRow(2, 2.0, "b")}, 1)
	sw := tab.Switch()
	if sw.SnapshotRows != 2 {
		t.Fatalf("snapshot rows = %d", sw.SnapshotRows)
	}
	if tab.Active().Visible() != 2 {
		t.Fatalf("new active visible = %d", tab.Active().Visible())
	}
	// Snapshot sees both rows.
	if got := sw.Snapshot.Col(0).Load(1); got != 2 {
		t.Fatalf("snapshot row 1 col 0 = %d", got)
	}
}

func TestUpdateGoesToActiveOnly(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	tab.AppendRows([][]int64{tab.EncodeRow(1, 1.0, "a")}, 1)
	tab.Switch() // both instances now hold row 0
	a := tab.ActiveIndex()
	tab.UpdateCell(0, 0, 99, 5)
	if got := tab.ReadCell(a, 0, 0); got != 99 {
		t.Fatalf("active = %d", got)
	}
	if got := tab.ReadCell(1-a, 0, 0); got != 1 {
		t.Fatalf("inactive mutated: %d", got)
	}
	if tab.Instance(a).dirty.CountBelow(1) != 1 {
		t.Fatal("update-indication bit not set")
	}
	if tab.RowTS(0) != 5 {
		t.Fatalf("rowTS = %d", tab.RowTS(0))
	}
	if tab.ColumnUpdateCount(0) != 1 || tab.ColumnUpdateCount(1) != 0 {
		t.Fatalf("column update counts = %d, %d, want 1, 0", tab.ColumnUpdateCount(0), tab.ColumnUpdateCount(1))
	}
}

func noLock(int64) func() { return func() {} }

func lockNothing(row int64) func() { return noLock(row) }

func TestSwitchSyncTwinInvariant(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	var rows [][]int64
	for i := 0; i < 100; i++ {
		rows = append(rows, tab.EncodeRow(i, float64(i), "x"))
	}
	tab.AppendRows(rows, 1)
	tab.SyncTo(tab.ActiveIndex(), lockNothing)
	tab.Switch()

	// Update a few rows on the active instance.
	for _, r := range []int64{3, 50, 99} {
		tab.UpdateCell(r, 0, r*1000, 7)
	}
	if n := tab.Inactive().DirtyCount(); n != 0 {
		t.Fatalf("inactive instance carries %d dirty bits: only the active one is updated", n)
	}
	copied := tab.SyncTo(tab.ActiveIndex(), lockNothing)
	if copied != 3 {
		t.Fatalf("copied = %d, want 3", copied)
	}
	sw := tab.Switch()
	// Twin invariant: both instances identical below the watermark.
	for r := int64(0); r < sw.SnapshotRows; r++ {
		for c := 0; c < 3; c++ {
			if tab.ReadCell(0, r, c) != tab.ReadCell(1, r, c) {
				t.Fatalf("instances diverge at row %d col %d", r, c)
			}
		}
	}
	// An instance goes inactive drained and stays that way.
	if sw.Snapshot.DirtyCount() != 0 || tab.Active().DirtyCount() != 0 {
		t.Fatalf("dirty bits remain: snapshot %d, active %d", sw.Snapshot.DirtyCount(), tab.Active().DirtyCount())
	}
}

// TestSyncCountsTheCellsItChanges pins the colUpdates invariant: whoever
// read the inactive instance between an update and the sync that precedes
// the next switch saw the pre-update word, so the sync's store must move
// the column's counter — and must leave the counters of columns it did not
// change alone.
func TestSyncCountsTheCellsItChanges(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	tab.AppendRows([][]int64{tab.EncodeRow(1, 1.0, "a"), tab.EncodeRow(2, 2.0, "b")}, 1)
	tab.UpdateCell(0, 0, 100, 2)
	seen := tab.ColumnUpdateCount(0)
	inactive := 1 - tab.ActiveIndex()
	if stale := tab.ReadCell(inactive, 0, 0); stale != 1 {
		t.Fatalf("inactive instance holds %d before sync, want the pre-update 1", stale)
	}
	tab.SyncTo(tab.ActiveIndex(), lockNothing)
	if got := tab.ReadCell(inactive, 0, 0); got != 100 {
		t.Fatalf("sync did not propagate the update: %d", got)
	}
	if tab.ColumnUpdateCount(0) == seen {
		t.Fatal("sync changed a cell of column 0 without counting it: a reader of the update→sync window is never invalidated")
	}
	for c := 1; c < 3; c++ {
		if n := tab.ColumnUpdateCount(c); n != 0 {
			t.Fatalf("never-updated column %d counts %d after sync, want 0", c, n)
		}
	}
}

func TestFreshSince(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	var rows [][]int64
	for i := 0; i < 10; i++ {
		rows = append(rows, tab.EncodeRow(i, 0.0, "x"))
	}
	tab.AppendRows(rows, 1)
	st := tab.FreshSince(0)
	if st.InsertedRows != 10 || st.UpdatedRows != 0 {
		t.Fatalf("fresh = %+v", st)
	}
	// An OLAP replica that has the first 10 rows: one of them is updated,
	// one row is inserted and then updated before the replica sees it.
	tab.UpdateCell(2, 0, 5, 2)
	tab.AppendRows([][]int64{tab.EncodeRow(10, 0.0, "y")}, 3)
	tab.UpdateCell(10, 0, 6, 4)
	st = tab.FreshSince(10)
	if st.UpdatedRows != 1 {
		t.Fatalf("updated = %d, want 1", st.UpdatedRows)
	}
	if st.InsertedRows != 1 {
		t.Fatalf("inserted = %d, want 1 (the updated insert is one fresh row, not two)", st.InsertedRows)
	}
	if st.FreshRows() != 2 || st.Rows != 11 {
		t.Fatalf("fresh = %+v, want 2 fresh of 11", st)
	}
	if tab.DirtyOLAP().CountBelow(11) == tab.DirtyOLAP().CountBelow(10) {
		t.Fatal("the updated insert lost its bit; the ETL after its first one would miss a re-update")
	}
}

func TestConcurrentAppendAndScan(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	var rows [][]int64
	for i := 0; i < 1000; i++ {
		rows = append(rows, tab.EncodeRow(i, 0.0, "x"))
	}
	tab.AppendRows(rows, 1)
	sw := tab.Switch()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent appender (inserts beyond the watermark)
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tab.AppendRows([][]int64{tab.EncodeRow(1000+i, 0.0, "y")}, 2)
		}
	}()
	// Scan the snapshot below its watermark repeatedly.
	for rep := 0; rep < 20; rep++ {
		var sum int64
		sw.Snapshot.Col(0).Scan(0, sw.SnapshotRows, func(vals []int64, base int64) {
			for _, v := range vals {
				sum += v
			}
		})
		if want := int64(1000 * 999 / 2); sum != want {
			t.Fatalf("scan sum = %d, want %d", sum, want)
		}
	}
	wg.Wait()
}

func TestReplicaETLEquivalence(t *testing.T) {
	tab := NewTable(testSchema(), 8)
	var rows [][]int64
	for i := 0; i < 200; i++ {
		rows = append(rows, tab.EncodeRow(i, float64(i)/2, "x"))
	}
	tab.AppendRows(rows, 1)
	rep := NewReplica(tab)
	sw := tab.Switch()
	if b, _ := rep.CopyInserts(sw.Snapshot, 0, sw.SnapshotRows); b != 200*tab.Schema().RowBytes() {
		t.Fatalf("bytes = %d", b)
	}
	if rep.Rows() != 200 {
		t.Fatalf("replica rows = %d", rep.Rows())
	}
	for r := int64(0); r < 200; r++ {
		if !rep.EqualRow(sw.Snapshot, r) {
			t.Fatalf("replica row %d differs", r)
		}
	}
	// Copy an updated row individually.
	tab.UpdateCell(7, 1, EncodeFloat(123.5), 3)
	sw2 := tab.Switch()
	rep.CopyRow(sw2.Snapshot, 7)
	if got := DecodeFloat(rep.Col(1).Load(7)); got != 123.5 {
		t.Fatalf("updated row copy = %v", got)
	}
}

func TestWordsSliceBoundaries(t *testing.T) {
	w := newWords(ChunkSize * 2)
	w.Store(ChunkSize-1, 7)
	w.Store(ChunkSize, 8)
	s := w.Slice(ChunkSize-1, ChunkSize)
	if len(s) != 1 || s[0] != 7 {
		t.Fatalf("slice = %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-chunk Slice must panic")
		}
	}()
	w.Slice(ChunkSize-1, ChunkSize+1)
}

func TestQuickAppendReadBack(t *testing.T) {
	f := func(vals []int64) bool {
		tab := NewTable(Schema{Name: "q", Columns: []ColumnDef{{Name: "v", Type: Int64}}}, 4)
		rows := make([][]int64, len(vals))
		for i, v := range vals {
			rows[i] = []int64{v}
		}
		tab.AppendRows(rows, 1)
		for i, v := range vals {
			if tab.ReadActive(int64(i), 0) != v {
				return false
			}
		}
		return tab.Rows() == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSwitchRoundTrips(t *testing.T) {
	// Property: after any number of update/sync/switch rounds, the active
	// instance holds the newest value of every row.
	f := func(updates []uint8) bool {
		tab := NewTable(Schema{Name: "q", Columns: []ColumnDef{{Name: "v", Type: Int64}}}, 4)
		const n = 16
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{0}
		}
		tab.AppendRows(rows, 1)
		tab.SyncTo(tab.ActiveIndex(), lockNothing)
		tab.Switch()
		want := make([]int64, n)
		ts := uint64(2)
		for step, u := range updates {
			r := int64(u % n)
			v := int64(step + 1)
			tab.UpdateCell(r, 0, v, ts)
			ts++
			want[r] = v
			if step%3 == 2 {
				tab.SyncTo(tab.ActiveIndex(), lockNothing)
				tab.Switch()
			}
		}
		for r := int64(0); r < n; r++ {
			if tab.ReadActive(r, 0) != want[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
