package checkpoint

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
	"elastichtap/internal/wal"
)

// restore reads a table checkpoint into a fresh table of tab's schema.
func restore(raw []byte, tab *columnar.Table) (*columnar.Table, error) {
	fresh := columnar.NewTable(tab.Schema(), 0)
	return fresh, ReadInto(bytes.NewReader(raw), fresh)
}

func TestRoundTrip(t *testing.T) {
	db := ch.Load(oltp.NewEngine(), ch.TinySizing(), 3)
	tab := db.OrderLine.Table()
	sw := tab.Switch()

	var buf bytes.Buffer
	if err := Write(&buf, tab, sw.Snapshot, sw.SnapshotRows); err != nil {
		t.Fatal(err)
	}
	restored, err := restore(buf.Bytes(), tab)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Rows() != sw.SnapshotRows {
		t.Fatalf("rows = %d, want %d", restored.Rows(), sw.SnapshotRows)
	}
	if restored.Schema().Name != tab.Schema().Name {
		t.Fatalf("schema name = %q", restored.Schema().Name)
	}
	// Cell-for-cell equality including decoded strings.
	for r := int64(0); r < sw.SnapshotRows; r += 31 {
		for c := range tab.Schema().Columns {
			want := tab.DecodeValue(c, sw.Snapshot.Col(c).Load(r))
			got := restored.DecodeValue(c, restored.ReadActive(r, c))
			if want != got {
				t.Fatalf("row %d col %d: %v != %v", r, c, got, want)
			}
		}
	}
}

func TestCheckpointWhileTransactionsContinue(t *testing.T) {
	// The checkpoint reads the inactive instance while the active one
	// keeps mutating — no torn data, snapshot semantics hold.
	db := ch.Load(oltp.NewEngine(), ch.TinySizing(), 4)
	tab := db.District.Table()
	sw := tab.Switch()
	preSum := int64(0)
	for r := int64(0); r < sw.SnapshotRows; r++ {
		preSum += sw.Snapshot.Col(ch.DNextOID).Load(r)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			tab.UpdateCell(int64(i)%sw.SnapshotRows, ch.DNextOID, int64(1000+i), 5)
		}
	}()
	var buf bytes.Buffer
	if err := Write(&buf, tab, sw.Snapshot, sw.SnapshotRows); err != nil {
		t.Fatal(err)
	}
	<-done

	restored, err := restore(buf.Bytes(), tab)
	if err != nil {
		t.Fatal(err)
	}
	postSum := int64(0)
	for r := int64(0); r < restored.Rows(); r++ {
		postSum += restored.ReadActive(r, ch.DNextOID)
	}
	if postSum != preSum {
		t.Fatalf("checkpoint saw concurrent updates: %d != %d", postSum, preSum)
	}
}

func TestBadMagic(t *testing.T) {
	tab := columnar.NewTable(columnar.Schema{
		Name:    "t",
		Columns: []columnar.ColumnDef{{Name: "v", Type: columnar.Int64}},
	}, 0)
	if _, err := restore([]byte("NOPE0000"), tab); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	db := ch.Load(oltp.NewEngine(), ch.TinySizing(), 3)
	tab := db.Region.Table()
	sw := tab.Switch()
	var buf bytes.Buffer
	if err := Write(&buf, tab, sw.Snapshot, sw.SnapshotRows); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, 10, buf.Len() / 2, buf.Len() - 1} {
		if _, err := restore(buf.Bytes()[:cut], tab); err == nil {
			t.Fatalf("truncated stream at %d accepted", cut)
		}
	}
}

func TestEmptyTable(t *testing.T) {
	tab := columnar.NewTable(columnar.Schema{
		Name:    "empty",
		Columns: []columnar.ColumnDef{{Name: "v", Type: columnar.Int64}},
	}, 0)
	sw := tab.Switch()
	var buf bytes.Buffer
	if err := Write(&buf, tab, sw.Snapshot, 0); err != nil {
		t.Fatal(err)
	}
	restored, err := restore(buf.Bytes(), tab)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Rows() != 0 {
		t.Fatalf("rows = %d", restored.Rows())
	}
}

// wideSchema has one column of each type, so a file has every kind of
// section: int and float words, dictionary codes and a dictionary.
var wideSchema = columnar.Schema{Name: "wide", Columns: []columnar.ColumnDef{
	{Name: "id", Type: columnar.Int64},
	{Name: "amt", Type: columnar.Float64},
	{Name: "tag", Type: columnar.String},
}}

// wideTable appends rows deterministic rows to a fresh wideSchema table.
func wideTable(rows int) *columnar.Table {
	tab := columnar.NewTable(wideSchema, 0)
	batch := make([][]int64, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, tab.EncodeRow(i, float64(i)/4, fmt.Sprintf("tag-%d", i%97)))
	}
	tab.AppendRows(batch, 3)
	return tab
}

// formatSizes are the row counts a round trip is held to: empty, one row,
// and each side of the first and second chunk boundaries.
var formatSizes = []int{0, 1, columnar.ChunkSize - 1, columnar.ChunkSize, columnar.ChunkSize + 1, 2*columnar.ChunkSize + 3}

// TestRestoreRecheckpointsByteIdentical: a table restored through the
// column-major fill, written out again from either twin, yields the file it
// was restored from — at every size across the chunk boundaries, with a
// dictionary column. What the restore allocates is per table (buffers,
// dictionary entries), not per row: the chunks are the table's own.
func TestRestoreRecheckpointsByteIdentical(t *testing.T) {
	for _, rows := range append(formatSizes, 2*columnar.ChunkSize+5) {
		tab := wideTable(rows)
		var first bytes.Buffer
		if err := Write(&first, tab, tab.Active(), tab.Rows()); err != nil {
			t.Fatal(err)
		}
		restored := columnar.NewTable(wideSchema, int64(rows))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := ReadInto(bytes.NewReader(first.Bytes()), restored); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > 1000 {
			t.Fatalf("%d rows: restore allocated %d objects", rows, n)
		}
		if restored.Rows() != int64(rows) || restored.Active().Visible() != int64(rows) {
			t.Fatalf("restored %d rows, %d visible, want %d", restored.Rows(), restored.Active().Visible(), rows)
		}
		for k := 0; k < 2; k++ {
			var again bytes.Buffer
			if err := Write(&again, restored, restored.Instance(k), restored.Rows()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), again.Bytes()) {
				t.Fatalf("%d rows: re-checkpoint of instance %d differs from the image it was restored from", rows, k)
			}
		}
	}
}

// TestFormatRoundTrip: every size across the chunk boundaries restores
// cell for cell, decoded strings and row timestamps included — also from
// each twin of a table whose chunk an update has split, where the written
// instance's run is memory of its own and its twin's the shared one.
func TestFormatRoundTrip(t *testing.T) {
	check := func(name string, tab *columnar.Table, inst *columnar.Instance) {
		t.Helper()
		var buf bytes.Buffer
		if err := Write(&buf, tab, inst, tab.Rows()); err != nil {
			t.Fatal(err)
		}
		restored, err := restore(buf.Bytes(), tab)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if restored.Rows() != tab.Rows() {
			t.Fatalf("%s: restored %d rows, want %d", name, restored.Rows(), tab.Rows())
		}
		for r := int64(0); r < tab.Rows(); r++ {
			for c := range wideSchema.Columns {
				want := tab.DecodeValue(c, inst.Col(c).Load(r))
				for k := 0; k < 2; k++ {
					if got := restored.DecodeValue(c, restored.ReadCell(k, r, c)); got != want {
						t.Fatalf("%s: row %d col %d instance %d: %v, want %v", name, r, c, k, got, want)
					}
				}
			}
			if ts := restored.RowTS(r); ts != 0 {
				t.Fatalf("%s: row %d restored with timestamp %d", name, r, ts)
			}
		}
	}
	for _, rows := range formatSizes {
		tab := wideTable(rows)
		check(fmt.Sprintf("%d rows", rows), tab, tab.Active())
	}
	tab := wideTable(2*columnar.ChunkSize + 3)
	row := int64(columnar.ChunkSize + 7)
	tab.UpdateCell(row, 1, columnar.EncodeFloat(-1), 9)
	if shared, private := tab.TwinBytes(); private == 0 || shared == 0 {
		t.Fatalf("update split nothing: %d shared, %d private", shared, private)
	}
	check("updated twin", tab, tab.Active())
	check("snapshot twin", tab, tab.Inactive())
}

// pinnedCRC is the CRC32C of pinnedImage's bytes as the v2 format wrote
// them when it was first pinned. Write changing it is a format change.
const pinnedCRC = 0xd889ab34

// pinnedImage is one deterministic table's checkpoint: three chunks'
// worth of rows, both word types and a dictionary.
func pinnedImage(t *testing.T) []byte {
	tab := wideTable(2*columnar.ChunkSize + 3)
	var buf bytes.Buffer
	if err := Write(&buf, tab, tab.Active(), tab.Rows()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFormatPinned: the bytes Write produces for a fixed table are the
// ones v2 has always produced, so an unintended format change fails here
// rather than in a recovery from an older image.
func TestFormatPinned(t *testing.T) {
	if got := crc32.Checksum(pinnedImage(t), wal.Castagnoli); got != pinnedCRC {
		t.Fatalf("checkpoint bytes CRC32C %#08x, pinned %#08x: the v2 format changed", got, uint32(pinnedCRC))
	}
}
