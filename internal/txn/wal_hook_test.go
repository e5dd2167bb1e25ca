package txn

import (
	"sync"
	"testing"
	"time"

	"elastichtap/internal/columnar"
	"elastichtap/internal/wal"
)

// TestCommitWritesAhead verifies the WAL hook: every commit (including a
// read-only one) lands a record carrying the commit timestamp and full
// write set before the commit returns, and a failed append aborts the
// transaction instead of half-applying it.
func TestCommitWritesAhead(t *testing.T) {
	m, ref := newTestTable(t, 2)
	fs := wal.NewMemFS()
	l, err := wal.Open(fs, "wal.log", wal.SyncAlways, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(l)

	// Update + insert in one transaction.
	tx := m.Begin()
	if err := tx.Write(ref, 0, 1, 777); err != nil {
		t.Fatal(err)
	}
	slot, err := tx.Insert(ref, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	copy(slot, []int64{9, 900, 10, 1000})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Read-only transaction: still logged, so recovery reproduces the
	// exact clock and commit count.
	ro := m.Begin()
	if _, ok := ro.Read(ref, 0, 1); !ok {
		t.Fatal("read failed")
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := fs.Open("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []*wal.Record
	st, err := wal.Replay(f, 0, func(_ int64, rec *wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil || st.Truncated || len(recs) != 2 {
		t.Fatalf("replay: err=%v stats=%+v records=%d", err, st, len(recs))
	}
	first := recs[0]
	if first.CommitTS == 0 || len(first.Ops) != 2 {
		t.Fatalf("first record %+v", first)
	}
	up, ins := first.Ops[0], first.Ops[1]
	if up.Kind != wal.OpUpdate || up.Table != ref.id || up.Row != 0 || up.Col != 1 || up.Val != 777 {
		t.Fatalf("update op %+v", up)
	}
	if ins.Kind != wal.OpInsert || ins.NRows != 2 || ins.Width != 2 ||
		ins.Vals[0] != 9 || ins.Vals[3] != 1000 {
		t.Fatalf("insert op %+v", ins)
	}
	if got := recs[1]; len(got.Ops) != 0 || got.CommitTS <= first.CommitTS {
		t.Fatalf("read-only record %+v", got)
	}
}

func TestCommitAbortsWhenAppendFails(t *testing.T) {
	m, ref := newTestTable(t, 2)
	fs := wal.NewMemFS()
	l, err := wal.Open(fs, "wal.log", wal.SyncAlways, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(l)
	fs.CrashAfterWrite(0)

	tx := m.Begin()
	if err := tx.Write(ref, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil || wal.IsSyncFailure(err) {
		t.Fatalf("commit with dead log = %v, want hard append failure", err)
	}
	if m.Commits() != 0 || m.Aborts() != 1 {
		t.Fatalf("commits=%d aborts=%d", m.Commits(), m.Aborts())
	}
	// The flag the commit set on the row must be gone, the write must not
	// have applied, and the lock must be free. A flag left behind would
	// make every snapshot read of the row wait forever, so the read is
	// bounded.
	if ts := ref.Table.RowTS(0); ts&columnar.Applying != 0 {
		t.Fatalf("RowTS(0) = %#x: the failed commit left its Applying flag", ts)
	}
	check := m.Begin()
	defer check.Abort()
	read := make(chan int64, 1)
	go func() {
		v, _ := check.Read(ref, 0, 1)
		read <- v
	}()
	select {
	case v := <-read:
		if v != 100 {
			t.Fatalf("aborted commit leaked value %d", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot read of the failed commit's row did not return within 10s")
	}
	if err := check.Write(ref, 0, 1, 6); err != nil {
		t.Fatalf("lock not released: %v", err)
	}
}

func TestCommitSyncFailureStillApplies(t *testing.T) {
	m, ref := newTestTable(t, 2)
	fs := wal.NewMemFS()
	l, err := wal.Open(fs, "wal.log", wal.SyncAlways, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(l)
	fs.FailSyncs(0)

	tx := m.Begin()
	if err := tx.Write(ref, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if !wal.IsSyncFailure(err) {
		t.Fatalf("commit err = %v, want sync failure", err)
	}
	if m.Commits() != 1 {
		t.Fatalf("commits=%d, want 1: the commit applied", m.Commits())
	}
	check := m.Begin()
	defer check.Abort()
	if v, _ := check.Read(ref, 0, 1); v != 5 {
		t.Fatalf("sync-failed commit not visible: %d", v)
	}
}

// TestCommitAfterSyncFailureAborts: once a failed fsync has broken the
// log, a later commit's record never reaches it and its apply never runs,
// so the commit aborts and takes back the flags it set; left behind, they
// would make every snapshot read of the row wait and every later lock of
// it conflict.
func TestCommitAfterSyncFailureAborts(t *testing.T) {
	m, ref := newTestTable(t, 2)
	fs := wal.NewMemFS()
	l, err := wal.Open(fs, "wal.log", wal.SyncAlways, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(l)
	fs.FailSyncs(0)

	tx := m.Begin()
	if err := tx.Write(ref, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !wal.IsSyncFailure(err) {
		t.Fatalf("first commit err = %v, want sync failure", err)
	}
	tx = m.Begin()
	if err := tx.Write(ref, 0, 1, 6); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil || wal.IsSyncFailure(err) {
		t.Fatalf("commit on a broken log = %v, want a hard append failure", err)
	}
	if m.Commits() != 1 || m.Aborts() != 1 {
		t.Fatalf("commits=%d aborts=%d, want 1 and 1", m.Commits(), m.Aborts())
	}
	if ts := ref.Table.RowTS(0); ts&columnar.Applying != 0 {
		t.Fatalf("RowTS(0) = %#x: the refused commit left its Applying flag", ts)
	}
	check := m.Begin()
	defer check.Abort()
	read := make(chan int64, 1)
	go func() {
		v, _ := check.Read(ref, 0, 1)
		read <- v
	}()
	select {
	case v := <-read:
		if v != 5 {
			t.Fatalf("row 0 reads %d, want 5 from the applied commit", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot read of the refused commit's row did not return within 10s")
	}
	if err := check.Write(ref, 0, 1, 7); err != nil {
		t.Fatalf("row 0 not lockable after the refused commit: %v", err)
	}
}

// TestCommitBarrierSeesLoggedCommitsCounted: inside a CommitBarrier the
// commit counter covers exactly the records the log holds — a checkpoint
// captures both there, and recovery adds the replayed suffix to the count.
// A commit counted only after it left the gate would be in the log, and so
// not replayed, yet missing from the captured count.
func TestCommitBarrierSeesLoggedCommitsCounted(t *testing.T) {
	m, ref := newTestTable(t, 4)
	l, err := wal.Open(wal.NewMemFS(), "wal.log", wal.SyncNever, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(l)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(row int64) {
			defer wg.Done()
			for v := int64(0); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := m.Begin()
				if err := tx.Write(ref, row, 1, v); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(int64(g))
	}
	for i := 0; i < 2000; i++ {
		m.CommitBarrier(func() {
			if appends, _, _ := l.Stats(); m.Commits() != uint64(appends) {
				t.Errorf("barrier %d: %d commits counted, log holds %d records", i, m.Commits(), appends)
			}
		})
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}
