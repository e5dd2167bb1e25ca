package checkpoint

import (
	"bytes"
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
