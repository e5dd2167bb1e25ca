package txn

import (
	"runtime"
	"testing"

	"elastichtap/internal/columnar"
)

// A commit skips its pre-images when it is the only transaction open once
// it has drawn its commit timestamp. These tests stop a reader and a
// writer inside the windows where that decision could go wrong, through
// the manager's probe, and check that the reader still reads the value
// from before the commit.

// TestReaderBegunBeforeTheCommitDrawReadsThePreImage: a reader that begins
// after the writer has flagged its rows but before it draws its commit
// timestamp has a snapshot below the commit, so the commit must count it
// and push.
func TestReaderBegunBeforeTheCommitDrawReadsThePreImage(t *testing.T) {
	m, ref := newTestTable(t, 2)
	w := m.Begin()
	if err := w.Write(ref, 0, 1, 250); err != nil {
		t.Fatal(err)
	}
	var reader *Txn
	m.SetProbe(func(point string) {
		if point == "commit" && reader == nil {
			reader = m.Begin()
		}
	})
	err := w.Commit()
	m.SetProbe(nil)
	if err != nil {
		t.Fatal(err)
	}
	if reader == nil {
		t.Fatal("the commit never reached its probe")
	}
	defer reader.Abort()
	if ts := ref.Table.RowTS(0); ts <= reader.begin {
		t.Fatalf("commit %d is not past the reader's snapshot %d", ts, reader.begin)
	}
	if v, ok := reader.Read(ref, 0, 1); !ok || v != 100 {
		t.Fatalf("reader begun before the commit draw read %d,%v, want 100", v, ok)
	}
}

// TestReaderBeginningDuringACommitReadsThePreImage: a reader stopped right
// after drawing its begin timestamp, not yet in the active set, while a
// writer draws a later commit timestamp, applies and stamps its row. The
// writer must have counted the reader among the open transactions.
func TestReaderBeginningDuringACommitReadsThePreImage(t *testing.T) {
	m, ref := newTestTable(t, 2)
	w := m.Begin()
	if err := w.Write(ref, 0, 1, 250); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	m.SetProbe(func(point string) {
		if point != "begin" {
			return
		}
		// The reader holds the manager's lock here, so the writer gets
		// as far as its end, which waits for it; the row is stamped by
		// then, and whether to push was decided before.
		go func() { committed <- w.Commit() }()
		for ts := ref.Table.RowTS(0); ts == 0 || ts&columnar.Applying != 0; ts = ref.Table.RowTS(0) {
			runtime.Gosched()
		}
	})
	reader := m.Begin()
	m.SetProbe(nil)
	defer reader.Abort()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if ts := ref.Table.RowTS(0); ts <= reader.begin {
		t.Fatalf("commit %d is not past the reader's snapshot %d", ts, reader.begin)
	}
	if v, ok := reader.Read(ref, 0, 1); !ok || v != 100 {
		t.Fatalf("reader that began inside the commit read %d,%v, want 100", v, ok)
	}
}
