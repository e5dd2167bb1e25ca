package elastichtap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/checkpoint"
	"elastichtap/internal/columnar"
	"elastichtap/internal/rde"
	"elastichtap/internal/wal"
)

// walName is the commit log's file name under the durability directory.
const walName = checkpoint.WALName

// durableSystem builds a system over a fault-injectable filesystem with
// the WAL attached and a bootstrap checkpoint of the freshly loaded
// database, mirroring the documented durability flow.
func durableSystem(t *testing.T, fs *wal.MemFS, policy SyncPolicy) (*System, *DB) {
	t.Helper()
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	db := sys.LoadCH(0.005, 7)
	if err := sys.EnableWAL(fs, "data", policy, 0); err != nil {
		t.Fatal(err)
	}
	if seq, err := sys.CheckpointDB(fs, "data"); err != nil || seq != 1 {
		t.Fatalf("bootstrap checkpoint: seq=%d err=%v", seq, err)
	}
	if err := sys.StartWorkload(30); err != nil {
		t.Fatal(err)
	}
	return sys, db
}

func TestDurabilityRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	sys, db := durableSystem(t, fs, SyncAlways)

	sys.Run(200)
	if seq, err := sys.CheckpointDB(fs, "data"); err != nil || seq != 2 {
		t.Fatalf("second checkpoint: seq=%d err=%v", seq, err)
	}
	sys.Run(150)

	wantCommits := sys.inner.OLTPE.Manager().Commits()
	wantQ6, err := sys.QueryContext(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	wantQ18, err := sys.QueryContext(context.Background(), Q18(db))
	if err != nil {
		t.Fatal(err)
	}
	// NewOrder keys its orders as they commit; recovery keys every table
	// anew (RebuildIndexes). Both must resolve every row's key to it.
	if err := db.CheckIndexes(); err != nil {
		t.Errorf("live: %v", err)
	}

	// Queries are read-only, so the durable image still reflects every
	// commit (SyncAlways): recovery must reproduce the same answers.
	img := fs.Crash(false)
	sys2, info, err := OpenFromDir(img, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if info.Seq != 2 {
		t.Fatalf("restored from seq %d, want 2", info.Seq)
	}
	if info.Replayed == 0 || info.Truncated {
		t.Fatalf("replay info = %+v, want clean tail with replayed txns", info)
	}
	if info.Commits != wantCommits {
		t.Fatalf("recovered %d commits, live saw %d", info.Commits, wantCommits)
	}
	// Recovery re-absorbs each replica's prefix by listing the restored
	// twins' chunks, not by copying them.
	if m := sys2.Metrics(); m.ReplicaSharedBytes == 0 {
		t.Fatalf("recovered replicas list no chunk with the twins: %d B shared, %d B own",
			m.ReplicaSharedBytes, m.ReplicaOwnBytes)
	}
	db2 := sys2.DB()
	if err := db2.CheckIndexes(); err != nil {
		t.Fatalf("recovered: %v", err)
	}
	gotQ6, err := sys2.QueryContext(context.Background(), Q6(db2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotQ6.Result.Rows, wantQ6.Result.Rows) {
		t.Fatalf("Q6 diverged: recovered %v, live %v", gotQ6.Result.Rows, wantQ6.Result.Rows)
	}
	gotQ18, err := sys2.QueryContext(context.Background(), Q18(db2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotQ18.Result.Rows, wantQ18.Result.Rows) {
		t.Fatalf("Q18 diverged: recovered %v, live %v", gotQ18.Result.Rows, wantQ18.Result.Rows)
	}

	// The recovered system resumes: WAL back on, workload continues.
	if err := sys2.EnableWAL(img, "data", SyncAlways, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys2.StartWorkload(30); err != nil {
		t.Fatal(err)
	}
	sys2.Run(50)
	if got := sys2.inner.OLTPE.Manager().Commits(); got <= wantCommits {
		t.Fatalf("commits stuck at %d after resuming workload", got)
	}
}

// TestSyncFailureCountsAsCommit: a commit whose record was written and
// applied but whose fsync failed is a commit, not a failed transaction.
// The log then refuses every later commit, and those fail. So over one
// batch the commits and the failures add up to the transactions run, and
// WAL().Sync() returns the sticky failure.
func TestSyncFailureCountsAsCommit(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableSystem(t, fs, SyncAlways)
	mgr, wm := sys.inner.OLTPE.Manager(), sys.inner.OLTPE.Workers()
	commits, failed := mgr.Commits(), wm.Failed()
	fs.FailSyncs(0)
	const n = 10
	sys.Run(n)
	dc, df := mgr.Commits()-commits, wm.Failed()-failed
	if dc+df != n {
		t.Fatalf("%d commits + %d failures after %d transactions", dc, df, n)
	}
	if dc == 0 || df == 0 {
		t.Fatalf("%d commits, %d failures: want the first commit applied and the rest refused", dc, df)
	}
	if err := sys.WAL().Sync(); err == nil {
		t.Fatal("WAL().Sync() = nil after a failed fsync")
	}
}

// TestRecoveryDeterministic: recovery is read-only, so opening the same
// crashed image repeatedly yields identical state.
func TestRecoveryDeterministic(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableSystem(t, fs, SyncAlways)
	sys.Run(120)
	img := fs.Crash(false)

	var commits []uint64
	var rows [][][]float64
	for i := 0; i < 2; i++ {
		s2, info, err := OpenFromDir(img, "data")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s2.QueryContext(context.Background(), Q6(s2.DB()))
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, info.Commits)
		rows = append(rows, rep.Result.Rows)
		s2.Close()
	}
	if commits[0] != commits[1] || !reflect.DeepEqual(rows[0], rows[1]) {
		t.Fatalf("recovery not deterministic: commits %v", commits)
	}
}

// TestRecoveryTruncatesCorruptTail: garbage past the last valid record is
// discarded by recovery, and EnableWAL physically truncates it so the
// resumed log stays parseable.
func TestRecoveryTruncatesCorruptTail(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableSystem(t, fs, SyncAlways)
	sys.Run(80)
	wantCommits := sys.inner.OLTPE.Manager().Commits()

	f, err := fs.Append("data/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0x13, 0x37}) // torn frame header
	f.Sync()
	f.Close()

	img := fs.Crash(false)
	sys2, info, err := OpenFromDir(img, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if !info.Truncated {
		t.Fatal("corrupt tail not reported")
	}
	if info.Commits != wantCommits {
		t.Fatalf("recovered %d commits, want %d", info.Commits, wantCommits)
	}
	if err := sys2.EnableWAL(img, "data", SyncAlways, 0); err != nil {
		t.Fatal(err)
	}
	if got := sys2.WAL().Pos(); got != info.ValidPos {
		t.Fatalf("resumed log at %d, want the valid watermark %d", got, info.ValidPos)
	}
}

// TestSyncNeverLosesOnlyUnsyncedTail: under SyncNever a crash that drops
// unsynced bytes falls back to the durable prefix — never a corrupt state.
func TestSyncNeverLosesOnlyUnsyncedTail(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableSystem(t, fs, SyncNever)
	sys.Run(100)

	// Lose everything unsynced: only the checkpoint (whose files are
	// explicitly synced) survives.
	img := fs.Crash(false)
	sys2, info, err := OpenFromDir(img, "data")
	if err != nil {
		t.Fatal(err)
	}
	sys2.Close()
	if info.Seq != 1 || info.Replayed != 0 {
		t.Fatalf("expected bare bootstrap restore, got %+v", info)
	}

	// Keep the page cache: the full log replays.
	img2 := fs.Crash(true)
	sys3, info2, err := OpenFromDir(img2, "data")
	if err != nil {
		t.Fatal(err)
	}
	sys3.Close()
	if info2.Replayed == 0 {
		t.Fatalf("kept-cache image replayed nothing: %+v", info2)
	}
	if got := sys.inner.OLTPE.Manager().Commits(); info2.Commits != got {
		t.Fatalf("kept-cache recovery found %d commits, live saw %d", info2.Commits, got)
	}
}

// TestCheckpointSyncsLogBelowItsPosition: a checkpoint taken under
// SyncNever makes the log below its position durable before its manifest.
// Otherwise a crash keeps the image and loses that prefix, the log resumes
// from the shorter prefix, and every commit it then logs lands below the
// manifest's position — skipped by the next recovery although each one
// was fsynced before it was acknowledged.
func TestCheckpointSyncsLogBelowItsPosition(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableSystem(t, fs, SyncNever)
	sys.Run(100)
	seq, err := sys.CheckpointDB(fs, "data")
	if err != nil {
		t.Fatal(err)
	}

	img := fs.Crash(false)
	sys2, info, err := OpenFromDir(img, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if info.Seq != seq || info.ValidPos < info.WALPos {
		t.Fatalf("checkpoint %d at log position %d survived a log of %d bytes", info.Seq, info.WALPos, info.ValidPos)
	}
	if err := sys2.EnableWAL(img, "data", SyncAlways, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys2.StartWorkload(30); err != nil {
		t.Fatal(err)
	}
	sys2.Run(50)
	acked := sys2.inner.OLTPE.Manager().Commits()

	sys3, info3, err := OpenFromDir(img.Crash(false), "data")
	if err != nil {
		t.Fatal(err)
	}
	defer sys3.Close()
	if info3.Commits != acked {
		t.Fatalf("recovered %d commits, the system acknowledged %d", info3.Commits, acked)
	}
}

// readManifest returns the raw bytes and the decoded form of checkpoint
// seq's manifest.
func readManifest(t *testing.T, fs FS, seq uint64) ([]byte, *checkpoint.Manifest) {
	t.Helper()
	f, err := fs.Open(checkpoint.SeqDir("data", seq) + "/" + checkpoint.ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	man, err := checkpoint.ReadManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return raw, man
}

// staleSystem is durableSystem driven to a state where every kind of
// staleness is present: replicas loaded by one ETL, then more NewOrders
// and Payments on top (updated rows below the watermarks, inserted rows
// above them, stock rows of new orders updated again).
func staleSystem(t *testing.T, fs *wal.MemFS) *System {
	t.Helper()
	sys, db := durableSystem(t, fs, SyncAlways)
	sys.Run(150)
	if _, err := sys.QueryInStateContext(context.Background(), Q6(db), S2); err != nil {
		t.Fatal(err)
	}
	sys.Run(150)
	return sys
}

// TestCheckpointManifestsByteIdentical: the catalog has an order, so two
// checkpoints of the same quiesced state list the tables the same way —
// their manifests differ in nothing (the sequence number is only in the
// directory name), and that order is the tables' creation order.
func TestCheckpointManifestsByteIdentical(t *testing.T) {
	fs := wal.NewMemFS()
	sys := staleSystem(t, fs)
	seqA, err := sys.CheckpointDB(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := sys.CheckpointDB(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	rawA, manA := readManifest(t, fs, seqA)
	rawB, _ := readManifest(t, fs, seqB)
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("manifests of checkpoints %d and %d of one quiesced state differ", seqA, seqB)
	}
	tables := sys.inner.OLTPE.Tables()
	if len(manA.Tables) != len(tables) {
		t.Fatalf("manifest lists %d tables, catalog has %d", len(manA.Tables), len(tables))
	}
	for i, h := range tables {
		if name := h.Table().Schema().Name; manA.Tables[i].Name != name {
			t.Fatalf("manifest table %d is %q, creation order says %q", i, manA.Tables[i].Name, name)
		}
	}
}

// tableFreshness reads every table's freshness, in catalog order.
func tableFreshness(s *System) []rde.Freshness {
	var out []rde.Freshness
	for _, h := range s.inner.OLTPE.Tables() {
		out = append(out, s.inner.X.TableFreshness(h))
	}
	return out
}

// TestRestoresManifestWithInsertedRowIDs: before inserts were the replica
// watermark alone, every appended row also carried a staleness bit, so a
// manifest's Dirty list named the inserted rows above ReplicaRows next to
// the updated ones. Such a manifest restores to the same freshness
// numbers, the same first ETL and the same state afterwards as the
// manifest this commit writes for the same database.
func TestRestoresManifestWithInsertedRowIDs(t *testing.T) {
	fs := wal.NewMemFS()
	sys := staleSystem(t, fs)
	seq, err := sys.CheckpointDB(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	live := tableFreshness(sys)

	_, man := readManifest(t, fs, seq)
	old := fs.Crash(false)
	inserted, updated := 0, 0
	for i := range man.Tables {
		te := &man.Tables[i]
		updated += len(te.Dirty)
		seen := map[int64]bool{}
		for _, row := range te.Dirty {
			seen[row] = true
		}
		for row := te.ReplicaRows; row < te.Rows; row++ {
			if !seen[row] {
				te.Dirty = append(te.Dirty, row)
				inserted++
			}
		}
		sort.Slice(te.Dirty, func(a, b int) bool { return te.Dirty[a] < te.Dirty[b] })
	}
	if inserted == 0 || updated == 0 {
		t.Fatalf("checkpoint has %d inserted and %d updated stale rows; the test needs both", inserted, updated)
	}
	f, err := old.Create(checkpoint.SeqDir("data", seq) + "/" + checkpoint.ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteManifest(f, man); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	type outcome struct {
		before, after []rde.Freshness
		etlBytes      int64
		rows          [][]float64
	}
	restore := func(img FS) outcome {
		s, info, err := OpenFromDir(img, "data")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if info.Seq != seq {
			t.Fatalf("restored from checkpoint %d, want %d", info.Seq, seq)
		}
		o := outcome{before: tableFreshness(s)}
		rep, err := s.QueryInStateContext(context.Background(), Q6(s.DB()), S2)
		if err != nil {
			t.Fatal(err)
		}
		o.etlBytes, o.rows, o.after = rep.ETLBytes, rep.Result.Rows, tableFreshness(s)
		return o
	}
	got, want := restore(old), restore(fs.Crash(false))
	if !reflect.DeepEqual(want.before, live) {
		t.Fatalf("restored freshness\n%+v\nlive system had\n%+v", want.before, live)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest with inserted row ids restored to\n%+v\nthis commit's manifest to\n%+v", got, want)
	}
	if want.etlBytes == 0 {
		t.Fatal("first ETL after restore copied nothing")
	}
}

// checkpointedSystem loads a small database and checkpoints it, with no
// log, into a fresh in-memory filesystem; it returns the filesystem and
// the checkpoint's sequence number.
func checkpointedSystem(t *testing.T) (*wal.MemFS, uint64) {
	t.Helper()
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.LoadCH(0.005, 7)
	fs := wal.NewMemFS()
	seq, err := sys.CheckpointDB(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	return fs, seq
}

// TestOpenFromDirRejectsTrailingBytes: bytes after a table file's last
// section pass every section checksum — the restore never reads them as
// data — but the manifest's checksum is of the whole file, so an image
// with a tail the manifest does not cover is refused: one stray byte, and a
// tail longer than the restore reads ahead. A tail the manifest does cover
// is part of the file it describes and restores; that needs the file
// drained into the checksum after the restore's last section.
func TestOpenFromDirRejectsTrailingBytes(t *testing.T) {
	fs, seq := checkpointedSystem(t)
	dir := checkpoint.SeqDir("data", seq)
	path := dir + "/" + ch.TItem + ".ehcp"
	withTail := func(extra int, covered bool) FS {
		img := fs.Crash(true)
		f, err := img.Append(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(bytes.Repeat([]byte{0xab}, extra)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if covered {
			_, man := readManifest(t, img, seq)
			for i := range man.Tables {
				if man.Tables[i].Name == ch.TItem {
					if man.Tables[i].FileCRC, err = checkpoint.FileCRC(img, path); err != nil {
						t.Fatal(err)
					}
				}
			}
			mf, err := img.Create(dir + "/" + checkpoint.ManifestName)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkpoint.WriteManifest(mf, man); err != nil {
				t.Fatal(err)
			}
			mf.Close()
		}
		return img
	}
	for _, extra := range []int{1, 1 << 20} {
		s, _, err := OpenFromDir(withTail(extra, false), "data")
		if err == nil {
			s.Close()
			t.Errorf("%d trailing bytes: image restored", extra)
		} else if !strings.Contains(err.Error(), "file checksum") {
			t.Errorf("%d trailing bytes: %v, want a file checksum mismatch", extra, err)
		}
	}
	for _, img := range []FS{fs, withTail(1<<20, true)} {
		s, _, err := OpenFromDir(img, "data")
		if err != nil {
			t.Fatalf("image the manifest covers: %v", err)
		}
		s.Close()
	}
}

// TestOpenFromDirRejectsReplicaRowsAboveRows: a manifest whose checksum
// holds but whose replica watermark lies past its table's rows is refused
// with an error; recovery used to hand it to the replica re-copy, which
// indexed past the restored chunks and panicked.
func TestOpenFromDirRejectsReplicaRowsAboveRows(t *testing.T) {
	fs, seq := checkpointedSystem(t)
	_, man := readManifest(t, fs, seq)
	man.Tables[0].ReplicaRows = man.Tables[0].Rows + 1<<20
	f, err := fs.Create(checkpoint.SeqDir("data", seq) + "/" + checkpoint.ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteManifest(f, man); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if s, _, err := OpenFromDir(fs, "data"); err == nil {
		s.Close()
		t.Fatal("manifest with replica rows above rows restored")
	}
}

// TestOpenFromDirRejectsReorderedTables: a manifest that lists the image's
// tables in an order other than the engine's is refused, though every
// file restores by its name: the log names a table by its index in that
// order, so replay would apply one table's records to another.
func TestOpenFromDirRejectsReorderedTables(t *testing.T) {
	fs, seq := checkpointedSystem(t)
	_, man := readManifest(t, fs, seq)
	man.Tables[0], man.Tables[1] = man.Tables[1], man.Tables[0]
	f, err := fs.Create(checkpoint.SeqDir("data", seq) + "/" + checkpoint.ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteManifest(f, man); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, _, err := OpenFromDir(fs, "data")
	if err == nil {
		s.Close()
		t.Fatal("manifest with its tables reordered restored")
	}
	if want := fmt.Sprintf("manifest lists %q as table 0", man.Tables[0].Name); !strings.Contains(err.Error(), want) {
		t.Fatalf("%v, want an error containing %q", err, want)
	}
}

// TestOpenFromDirRejectsUnappliableRecords: a log record whose checksum
// holds but which addresses a cell the table does not have is refused
// with an error; replay used to hand it to UpdateCell, which panicked.
func TestOpenFromDirRejectsUnappliableRecords(t *testing.T) {
	const warehouseID = 0 // the first table ch.Attach creates
	fs, _ := checkpointedSystem(t)
	for _, tc := range []struct {
		name string
		op   wal.Op
	}{
		{"column past the schema", wal.Op{Kind: wal.OpUpdate, Table: warehouseID, Col: 99}},
		{"negative row", wal.Op{Kind: wal.OpUpdate, Table: warehouseID, Row: -3}},
	} {
		img := fs.Crash(true)
		l, err := wal.Open(img, "data/"+walName, wal.SyncAlways, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(&wal.Record{CommitTS: 1, Ops: []wal.Op{tc.op}}, nil); err != nil {
			t.Fatal(err)
		}
		l.Close()
		s, _, err := OpenFromDir(img, "data")
		if err == nil {
			s.Close()
			t.Errorf("%s: log record applied", tc.name)
		} else if !strings.Contains(err.Error(), "log updates") {
			t.Errorf("%s: %v, want the replay to refuse the record", tc.name, err)
		}
	}
}

// TestRecoveryMatchesCellAtATimeReference: recovery — the pipelined
// replay, each commit's updates to a table applied as one batch, overlapped
// with the restore — ends in the state a reference reaches by restoring the
// same image with no log suffix and then applying the suffix one
// UpdateCell or AppendRows call per op, in log order: both instances'
// cells, row timestamps, both instances' dirty bits, dirtyOLAP and the
// column and table update counts. Against the live system at the crash
// point, the recovered active-instance cells are equal, and so are the
// timestamps of every row the log suffix wrote; the rest carry the
// restore's timestamp 0.
func TestRecoveryMatchesCellAtATimeReference(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableSystem(t, fs, SyncAlways)
	sys.Run(300)
	seq, err := sys.CheckpointDB(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(300)
	img := fs.Crash(false)
	_, man := readManifest(t, img, seq)

	got, info, err := OpenFromDir(img, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if info.Replayed < 300 {
		t.Fatalf("replayed %d commits, want the 300 after the checkpoint at least", info.Replayed)
	}

	cut := img.Crash(true)
	if err := cut.Truncate("data/"+walName, man.WALPos); err != nil {
		t.Fatal(err)
	}
	ref, refInfo, err := OpenFromDir(cut, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if refInfo.Replayed != 0 {
		t.Fatalf("the cut log replayed %d commits", refInfo.Replayed)
	}
	f, err := img.Open("data/" + walName)
	if err != nil {
		t.Fatal(err)
	}
	_, err = wal.Replay(f, man.WALPos, func(_ int64, rec *wal.Record) error {
		for _, op := range rec.Ops {
			tab := ref.db.Tables()[op.Table].Table()
			switch op.Kind {
			case wal.OpUpdate:
				tab.BeginApply()
				tab.UpdateCell(op.Row, int(op.Col), op.Val, rec.CommitTS)
				tab.EndApply()
			case wal.OpInsert:
				var rows [][]int64
				for r := 0; r < op.NRows; r++ {
					rows = append(rows, op.Vals[r*op.Width:(r+1)*op.Width])
				}
				tab.AppendRows(rows, rec.CommitTS)
			}
		}
		return nil
	})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, h := range got.db.Tables() {
		name := h.Table().Schema().Name
		a, b, live := h.Table(), ref.db.Handle(name).Table(), sys.db.Handle(name).Table()
		if a.Rows() != b.Rows() || a.Rows() != live.Rows() {
			t.Fatalf("%s: recovered %d rows, reference %d, live %d", name, a.Rows(), b.Rows(), live.Rows())
		}
		for r := int64(0); r < a.Rows(); r++ {
			for c := range a.Schema().Columns {
				for k := 0; k < 2; k++ {
					if x, y := a.ReadCell(k, r, c), b.ReadCell(k, r, c); x != y {
						t.Fatalf("%s: instance %d row %d col %d = %d, reference %d", name, k, r, c, x, y)
					}
				}
				if x, y := a.ReadActive(r, c), live.ReadActive(r, c); x != y {
					t.Fatalf("%s: active row %d col %d = %d, live %d", name, r, c, x, y)
				}
			}
			if x, y := a.RowTS(r), b.RowTS(r); x != y {
				t.Fatalf("%s: row %d timestamp %d, reference %d", name, r, x, y)
			}
			if x, y := a.RowTS(r), live.RowTS(r); y > man.Clock && x != y || y <= man.Clock && x != 0 {
				t.Fatalf("%s: row %d timestamp %d, live %d (image clock %d)", name, r, x, y, man.Clock)
			}
		}
		if x, y := dirtyOLAPRows(a), dirtyOLAPRows(b); !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: dirtyOLAP rows %v, reference %v", name, x, y)
		}
		for c := range a.Schema().Columns {
			if x, y := a.ColumnUpdateCount(c), b.ColumnUpdateCount(c); x != y {
				t.Fatalf("%s: column %d update count %d, reference %d", name, c, x, y)
			}
		}
		if x, y := a.UpdateCount(), b.UpdateCount(); x != y {
			t.Fatalf("%s: update count %d, reference %d", name, x, y)
		}
		// Last, because it drains them: each instance's dirty bits, as the
		// rows a sync visits.
		for _, k := range []int{a.ActiveIndex(), 1 - a.ActiveIndex()} {
			if x, y := dirtyRows(a, k), dirtyRows(b, k); !reflect.DeepEqual(x, y) {
				t.Fatalf("%s: instance %d dirty rows %v, reference %v", name, k, x, y)
			}
		}
	}
}

// dirtyRows drains instance k's dirty bits through a sync and returns the
// rows it visited, in order.
func dirtyRows(tab *columnar.Table, k int) []int64 {
	var rows []int64
	tab.SyncTo(k, func(row int64) func() {
		rows = append(rows, row)
		return func() {}
	})
	return rows
}

// errUnreadable is what faultFS returns for a path that exists but cannot
// be opened or listed.
var errUnreadable = errors.New("permission denied")

// faultFS is a MemFS on which the paths in fail exist but cannot be
// opened (files) or listed (directories).
type faultFS struct {
	*wal.MemFS
	fail map[string]bool
}

func (f faultFS) Open(name string) (io.ReadCloser, error) {
	if f.fail[name] {
		return nil, fmt.Errorf("open %s: %w", name, errUnreadable)
	}
	return f.MemFS.Open(name)
}

func (f faultFS) ReadDir(dir string) ([]string, error) {
	if f.fail[dir] {
		return nil, fmt.Errorf("readdir %s: %w", dir, errUnreadable)
	}
	return f.MemFS.ReadDir(dir)
}

// TestUnreadableIsNotAbsent: only a not-exist error means a log, an image
// or the directory is absent. Any other error is returned, because going
// on without what is there would recover without the logged commits,
// number a new image over a complete one, or start a log over one that
// holds commits.
func TestUnreadableIsNotAbsent(t *testing.T) {
	fs := wal.NewMemFS()
	sys, _ := durableSystem(t, fs, SyncAlways)
	sys.Run(150)
	img := fs.Crash(false)
	unopenableLog := faultFS{img, map[string]bool{"data/" + walName: true}}

	t.Run("OpenFromDir", func(t *testing.T) {
		sys2, info, err := OpenFromDir(unopenableLog, "data")
		if err == nil {
			sys2.Close()
			t.Fatalf("recovered %d commits without the log", info.Commits)
		}
		if !errors.Is(err, errUnreadable) {
			t.Fatalf("err = %v, want the log's open error", err)
		}
	})

	t.Run("Latest", func(t *testing.T) {
		for _, path := range []string{"data", checkpoint.SeqDir("data", 1) + "/" + checkpoint.ManifestName} {
			_, _, err := OpenFromDir(faultFS{img, map[string]bool{path: true}}, "data")
			if !errors.Is(err, errUnreadable) {
				t.Fatalf("%s unreadable: err = %v, want its error", path, err)
			}
		}
	})

	t.Run("CheckpointDB", func(t *testing.T) {
		before, _ := readManifest(t, fs, 1)
		seq, err := sys.CheckpointDB(faultFS{fs, map[string]bool{"data": true}}, "data")
		if !errors.Is(err, errUnreadable) {
			t.Fatalf("CheckpointDB over an unlistable directory: seq %d, err %v", seq, err)
		}
		if after, _ := readManifest(t, fs, 1); !bytes.Equal(before, after) {
			t.Fatal("image 1 was written over")
		}
	})

	t.Run("EnableWAL", func(t *testing.T) {
		sys2, _, err := OpenFromDir(img, "data")
		if err != nil {
			t.Fatal(err)
		}
		defer sys2.Close()
		err = sys2.EnableWAL(unopenableLog, "data", SyncAlways, 0)
		if l := sys2.WAL(); l != nil {
			t.Fatalf("EnableWAL over an unopenable log attached one at %d (err %v)", l.Pos(), err)
		}
		if !errors.Is(err, errUnreadable) {
			t.Fatalf("err = %v, want the log's open error", err)
		}
	})
}

// dirtyOLAPRows lists the committed rows whose updated-since-ETL bit is set.
func dirtyOLAPRows(t *columnar.Table) []int {
	var rows []int
	t.DirtyOLAP().ForEachSet(func(i int) {
		if int64(i) < t.Rows() {
			rows = append(rows, i)
		}
	})
	return rows
}
