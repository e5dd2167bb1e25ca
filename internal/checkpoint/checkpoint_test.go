package checkpoint

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
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

// TestRestoreRecheckpointsByteIdentical: a table restored through the
// column-major fill, written out again from either twin, yields the file it
// was restored from — across chunk boundaries, with a dictionary column.
func TestRestoreRecheckpointsByteIdentical(t *testing.T) {
	schema := columnar.Schema{Name: "wide", Columns: []columnar.ColumnDef{
		{Name: "id", Type: columnar.Int64},
		{Name: "amt", Type: columnar.Float64},
		{Name: "tag", Type: columnar.String},
	}}
	tab := columnar.NewTable(schema, 0)
	const rows = 2*columnar.ChunkSize + 5
	batch := make([][]int64, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, tab.EncodeRow(i, float64(i)/4, fmt.Sprintf("tag-%d", i%97)))
	}
	tab.AppendRows(batch, 3)

	var first bytes.Buffer
	if err := Write(&first, tab, tab.Active(), tab.Rows()); err != nil {
		t.Fatal(err)
	}
	// fill hands the decoded columns over as they are: what it allocates
	// is per table (dictionary entries, chunks), not per row.
	img, err := decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored := columnar.NewTable(schema, rows)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fill(restored, img); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 1000 {
		t.Fatalf("fill allocated %d objects for %d rows", n, rows)
	}
	if restored.Rows() != rows || restored.Active().Visible() != rows {
		t.Fatalf("restored %d rows, %d visible, want %d", restored.Rows(), restored.Active().Visible(), rows)
	}
	for k := 0; k < 2; k++ {
		var again bytes.Buffer
		if err := Write(&again, restored, restored.Instance(k), restored.Rows()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("re-checkpoint of instance %d differs from the image it was restored from", k)
		}
	}
}
