package checkpoint

import (
	"reflect"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/wal"
)

// imageDir writes, under "db", a log of three records and one image of a
// 100-row wide table taken after the first of them, with row 5 dirty.
func imageDir(t *testing.T) (*wal.MemFS, uint64) {
	t.Helper()
	fs := wal.NewMemFS()
	l, err := OpenLog(fs, "db", wal.SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	var walPos int64
	for id := uint64(1); id <= 3; id++ {
		if _, err := l.Append(&wal.Record{TxnID: id, CommitTS: id}, func() {}); err != nil {
			t.Fatal(err)
		}
		if id == 1 {
			walPos = l.Pos()
		}
	}
	src := wideTable(100)
	man := &Manifest{WALPos: walPos, Tables: []TableEntry{{Name: wideSchema.Name, Rows: 100, Dirty: []int64{5}}}}
	seq, err := WriteImage(fs, "db", man, []Snapshot{{Table: src, Inst: src.Active()}})
	if err != nil || seq != 1 {
		t.Fatalf("WriteImage = %d, %v", seq, err)
	}
	return fs, seq
}

// TestImageRecoverRoundTrip: the image WriteImage wrote is the one Latest
// finds and Recover restores, dirty bits included, and only the log suffix
// above the image's position reaches apply, in log order.
func TestImageRecoverRoundTrip(t *testing.T) {
	fs, seq := imageDir(t)
	got, man, ok, err := Latest(fs, "db")
	if err != nil || !ok || got != seq {
		t.Fatalf("Latest = %d, %v, %v", got, ok, err)
	}
	if crc, err := FileCRC(fs, tablePath(SeqDir("db", seq), wideSchema.Name)); err != nil || crc != man.Tables[0].FileCRC {
		t.Fatalf("file checksum %08x (%v), manifest says %08x", crc, err, man.Tables[0].FileCRC)
	}

	dst := columnar.NewTable(wideSchema, 0)
	var txns []uint64
	st, err := Recover(fs, "db", seq, man,
		func(name string) *columnar.Table {
			if name == wideSchema.Name {
				return dst
			}
			return nil
		},
		func(rec *wal.Record) error {
			if dst.DirtyOLAP().CountBelow(6) == dst.DirtyOLAP().CountBelow(5) {
				t.Error("a record applied before the dirty bits were in")
			}
			txns = append(txns, rec.TxnID)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if dst.Rows() != 100 || !reflect.DeepEqual(txns, []uint64{2, 3}) || st.Replayed != 2 {
		t.Fatalf("restored %d rows, applied %v, stats %+v", dst.Rows(), txns, st)
	}
	if next, err := NextSeq(fs, "db"); err != nil || next != seq+1 {
		t.Fatalf("NextSeq = %d, %v", next, err)
	}
}

// TestRecoverStopsReplayOnFailedRestore: a log record never applies over
// an image that did not restore.
func TestRecoverStopsReplayOnFailedRestore(t *testing.T) {
	fs, seq := imageDir(t)
	_, man, _, err := Latest(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Recover(fs, "db", seq, man,
		func(string) *columnar.Table { return nil },
		func(*wal.Record) error {
			t.Error("a record applied although the restore failed")
			return nil
		})
	if err == nil {
		t.Fatal("restored a table the catalog does not have")
	}
}
