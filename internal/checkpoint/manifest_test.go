package checkpoint

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
	"elastichtap/internal/wal"
)

func sampleManifest() *Manifest {
	return &Manifest{
		Clock:   1234,
		Commits: 567,
		WALPos:  8910,
		Extras:  map[string]int64{"day": 18262, "warehouses": 14},
		Tables: []TableEntry{
			{Name: "warehouse", Rows: 14, ReplicaRows: 14, Dirty: []int64{0, 3, 7}, FileCRC: 0xdeadbeef},
			{Name: "neworder", Rows: 0, ReplicaRows: 0, FileCRC: 1},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	want := sampleManifest()
	var buf bytes.Buffer
	if err := WriteManifest(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Extras, want.Extras) ||
		got.Clock != want.Clock || got.Commits != want.Commits || got.WALPos != want.WALPos {
		t.Fatalf("got %+v want %+v", got, want)
	}
	for i := range want.Tables {
		w, g := want.Tables[i], got.Tables[i]
		if g.Name != w.Name || g.Rows != w.Rows || g.ReplicaRows != w.ReplicaRows ||
			g.FileCRC != w.FileCRC || len(g.Dirty) != len(w.Dirty) {
			t.Fatalf("table %d: got %+v want %+v", i, g, w)
		}
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, sampleManifest()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, at := range []int{9, len(raw) / 2, len(raw) - 5} {
		mut := append([]byte(nil), raw...)
		mut[at] ^= 0x08
		if _, err := ReadManifest(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d accepted", at)
		}
	}
	for _, cut := range []int{3, 17, len(raw) - 1} {
		if _, err := ReadManifest(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestManifestRejectsContradictoryCounts: a manifest with a valid
// checksum whose replica watermark or dirty rows lie past its row count is
// refused with an error, not handed to recovery.
func TestManifestRejectsContradictoryCounts(t *testing.T) {
	for name, bend := range map[string]func(te *TableEntry){
		"replica rows above rows": func(te *TableEntry) { te.ReplicaRows = te.Rows + 1<<20 },
		"replica rows one above":  func(te *TableEntry) { te.ReplicaRows = te.Rows + 1 },
		"dirty row at rows":       func(te *TableEntry) { te.Dirty = append(te.Dirty, te.Rows) },
		"negative dirty row":      func(te *TableEntry) { te.Dirty = append(te.Dirty, -1) },
		"negative rows":           func(te *TableEntry) { te.Rows, te.ReplicaRows, te.Dirty = -1, -1, nil },
	} {
		m := sampleManifest()
		bend(&m.Tables[0])
		var buf bytes.Buffer
		if err := WriteManifest(&buf, m); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: manifest accepted", name)
		}
	}
}

// TestManifestDirtyCountNotTrusted: the dirty-row count is read before
// the manifest's checksum, so a claim of 2^24 dirty rows backed by no
// bytes must fail without allocating for the claim.
func TestManifestDirtyCountNotTrusted(t *testing.T) {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte(manifestMagic), manifestVersion)
	b = le.AppendUint64(le.AppendUint64(le.AppendUint64(b, 1), 1), 0) // clock, commits, WAL position
	b = le.AppendUint32(b, 0)                                         // extras
	b = le.AppendUint32(b, 1)                                         // tables
	b = append(le.AppendUint32(b, 1), 't')
	b = le.AppendUint64(le.AppendUint64(b, 1<<40), 0) // rows, replica rows
	b = le.AppendUint32(b, 1<<24)                     // dirty count, then EOF
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadManifest(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated manifest accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a truncated manifest allocated %d bytes", got)
	}
}

// TestCheckpointBitFlipDetected pins the v2 per-section checksums: any
// single flipped bit in a table checkpoint must fail the restore rather
// than silently corrupting data — the regression the version bump fixes.
func TestCheckpointBitFlipDetected(t *testing.T) {
	db := ch.Load(oltp.NewEngine(), ch.TinySizing(), 3)
	tab := db.District.Table()
	sw := tab.Switch()
	var buf bytes.Buffer
	if err := Write(&buf, tab, sw.Snapshot, sw.SnapshotRows); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a bit in the header, in column data, and near the dictionaries.
	for _, at := range []int{10, len(raw) / 3, len(raw) / 2, len(raw) - 20} {
		mut := append([]byte(nil), raw...)
		mut[at] ^= 0x01
		if _, err := restore(mut, tab); err == nil {
			t.Fatalf("bit flip at offset %d restored without error", at)
		}
	}
}

// TestRejectsVersion1: nothing writes the checksum-less v1 format any
// more, and a file claiming it is refused before any section is read.
func TestRejectsVersion1(t *testing.T) {
	tab := columnar.NewTable(columnar.Schema{
		Name:    "v1tab",
		Columns: []columnar.ColumnDef{{Name: "a", Type: columnar.Int64}},
	}, 4)
	tab.AppendRows([][]int64{{1}, {2}, {3}}, 0)
	sw := tab.Switch()
	var buf bytes.Buffer
	if err := Write(&buf, tab, sw.Snapshot, sw.SnapshotRows); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[len(magic):], 1)
	_, err := restore(raw, tab)
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 file: err = %v, want unsupported version", err)
	}
}

func TestReadInto(t *testing.T) {
	src := columnar.NewTable(columnar.Schema{
		Name:    "t",
		Columns: []columnar.ColumnDef{{Name: "v", Type: columnar.Int64}},
	}, 4)
	src.AppendRows([][]int64{{5}, {6}}, 0)
	sw := src.Switch()
	var buf bytes.Buffer
	if err := Write(&buf, src, sw.Snapshot, sw.SnapshotRows); err != nil {
		t.Fatal(err)
	}

	dst := columnar.NewTable(src.Schema(), 4)
	if err := ReadInto(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if dst.Rows() != 2 || dst.ReadActive(1, 0) != 6 {
		t.Fatalf("ReadInto: rows=%d cell=%d", dst.Rows(), dst.ReadActive(1, 0))
	}
	// Non-empty destination refused.
	if err := ReadInto(bytes.NewReader(buf.Bytes()), dst); err == nil {
		t.Fatal("ReadInto into non-empty table accepted")
	}
	// Schema mismatch refused.
	other := columnar.NewTable(columnar.Schema{
		Name:    "other",
		Columns: []columnar.ColumnDef{{Name: "v", Type: columnar.Int64}},
	}, 4)
	if err := ReadInto(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("ReadInto with mismatched schema accepted")
	}
}

func TestLatestSkipsTornCheckpoints(t *testing.T) {
	fs := wal.NewMemFS()
	writeCkpt := func(seq uint64, m *Manifest, withManifest bool) {
		dir := SeqDir("db", seq)
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(dir + "/warehouse.ehcp")
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("data"))
		f.Close()
		if !withManifest {
			return
		}
		mf, err := fs.Create(dir + "/" + ManifestName)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteManifest(mf, m); err != nil {
			t.Fatal(err)
		}
		mf.Close()
	}

	if _, _, ok, _ := Latest(fs, "db"); ok {
		t.Fatal("empty dir reported a checkpoint")
	}
	writeCkpt(1, &Manifest{Clock: 1}, true)
	writeCkpt(2, &Manifest{Clock: 2}, true)
	writeCkpt(3, nil, false) // torn: no manifest
	seq, m, ok, err := Latest(fs, "db")
	if err != nil || !ok || seq != 2 || m.Clock != 2 {
		t.Fatalf("Latest = seq %d clock %d ok %v err %v, want seq 2", seq, m.Clock, ok, err)
	}
	if next, err := NextSeq(fs, "db"); err != nil || next != 4 {
		t.Fatalf("NextSeq = %d, %v, want 4 (above the torn 3)", next, err)
	}

	// A corrupt manifest is torn too.
	mf, _ := fs.Create(SeqDir("db", 4) + "/" + ManifestName)
	mf.Write([]byte("EHMFgarbage"))
	mf.Close()
	seq, _, ok, _ = Latest(fs, "db")
	if !ok || seq != 2 {
		t.Fatalf("corrupt manifest not skipped: seq %d ok %v", seq, ok)
	}
}
