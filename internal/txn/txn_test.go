package txn

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"elastichtap/internal/columnar"
)

func newTestTable(t *testing.T, rows int) (*Manager, *TableRef) {
	t.Helper()
	m := NewManager()
	tab := columnar.NewTable(columnar.Schema{
		Name: "acct",
		Columns: []columnar.ColumnDef{
			{Name: "id", Type: columnar.Int64},
			{Name: "bal", Type: columnar.Int64},
		},
	}, int64(rows))
	var rs [][]int64
	for i := 0; i < rows; i++ {
		rs = append(rs, []int64{int64(i), 100})
	}
	tab.AppendRows(rs, 0)
	return m, m.Register(tab)
}

func TestReadCommittedSnapshot(t *testing.T) {
	m, ref := newTestTable(t, 2)

	t1 := m.Begin()
	t2 := m.Begin()
	if err := t1.Write(ref, 0, 1, 250); err != nil {
		t.Fatal(err)
	}
	// t2 must not see t1's uncommitted write.
	if v, ok := t2.Read(ref, 0, 1); !ok || v != 100 {
		t.Fatalf("t2 sees %d,%v", v, ok)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Still invisible: t2's snapshot predates the commit.
	if v, _ := t2.Read(ref, 0, 1); v != 100 {
		t.Fatalf("snapshot violated: t2 sees %d", v)
	}
	t2.Abort()
	// A new transaction sees the committed value.
	t3 := m.Begin()
	if v, _ := t3.Read(ref, 0, 1); v != 250 {
		t.Fatalf("t3 sees %d", v)
	}
	t3.Abort()
}

func TestReadYourOwnWrites(t *testing.T) {
	m, ref := newTestTable(t, 1)
	tx := m.Begin()
	if err := tx.Write(ref, 0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := tx.Read(ref, 0, 1); !ok || v != 7 {
		t.Fatalf("own write invisible: %d,%v", v, ok)
	}
	tx.Abort()
	// Aborted: nothing changed.
	t2 := m.Begin()
	if v, _ := t2.Read(ref, 0, 1); v != 100 {
		t.Fatalf("abort leaked: %d", v)
	}
	t2.Abort()
}

func TestFirstUpdaterWins(t *testing.T) {
	m, ref := newTestTable(t, 1)
	t1 := m.Begin()
	t2 := m.Begin()
	if err := t1.Write(ref, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// t2's snapshot predates t1's commit: writing the same record must
	// fail with a write-write conflict.
	err := t2.Write(ref, 0, 1, 2)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	t2.Abort()
}

func TestWaitDieYoungerDies(t *testing.T) {
	m, ref := newTestTable(t, 1)
	older := m.Begin()
	younger := m.Begin()
	if err := older.Write(ref, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Younger requester must die, not wait.
	if err := younger.Write(ref, 0, 1, 2); !errors.Is(err, ErrDie) {
		t.Fatalf("err = %v, want ErrDie", err)
	}
	younger.Abort()
	older.Abort()
}

func TestOlderWaitsForYounger(t *testing.T) {
	m, ref := newTestTable(t, 1)
	older := m.Begin()
	younger := m.Begin()
	if err := younger.Write(ref, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Older requester waits for the younger holder.
		done <- older.Write(ref, 0, 1, 6)
	}()
	// Commit only once the older writer is parked on row 0's lock word:
	// one that arrived after the commit would find the lock free and fail
	// the same way without ever waiting.
	deadline := time.Now().Add(10 * time.Second)
	for ref.Locks.word(0).Load()&waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the older writer never set row 0's waiting bit within 10 s")
		}
		runtime.Gosched()
	}
	if err := younger.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		// After the younger commits, the older acquires the lock but then
		// fails first-updater-wins validation.
		if !errors.Is(err, ErrConflict) {
			t.Fatalf("err = %v, want ErrConflict after wait", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the older writer still waits 10 s after the holder committed: its release woke no waiter")
	}
	older.Abort()
}

func TestVersionChainReadForOldSnapshot(t *testing.T) {
	m, ref := newTestTable(t, 1)
	reader := m.Begin() // snapshot before updates
	for i := 0; i < 5; i++ {
		tx := m.Begin()
		if err := tx.Write(ref, 0, 1, int64(200+i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := reader.Read(ref, 0, 1); !ok || v != 100 {
		t.Fatalf("old snapshot reads %d,%v want 100", v, ok)
	}
	reader.Abort()
}

func TestInsertVisibility(t *testing.T) {
	m, ref := newTestTable(t, 1)
	before := m.Begin()
	tx := m.Begin()
	var firstRow int64 = -1
	slot, err := tx.Insert(ref, 1, func(first int64) { firstRow = first })
	if err != nil {
		t.Fatal(err)
	}
	copy(slot, []int64{9, 900})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if firstRow != 1 {
		t.Fatalf("assigned row = %d", firstRow)
	}
	// Inserted row invisible to the earlier snapshot.
	if _, ok := before.Read(ref, firstRow, 1); ok {
		t.Fatal("insert visible to older snapshot")
	}
	before.Abort()
	after := m.Begin()
	if v, ok := after.Read(ref, firstRow, 1); !ok || v != 900 {
		t.Fatalf("insert invisible to new snapshot: %d,%v", v, ok)
	}
	after.Abort()
}

func TestRunWithRetry(t *testing.T) {
	m, ref := newTestTable(t, 1)
	attempts := 0
	retries, err := m.RunWithRetry(10, func(tx *Txn) error {
		attempts++
		if attempts < 3 {
			return ErrDie // simulated wait-die aborts
		}
		return tx.Write(ref, 0, 1, 42)
	})
	if err != nil {
		t.Fatal(err)
	}
	if retries != 2 {
		t.Fatalf("retries = %d", retries)
	}
	if m.Aborts() != 2 || m.Commits() != 1 {
		t.Fatalf("commits=%d aborts=%d", m.Commits(), m.Aborts())
	}
}

func TestGCReclaimsOldVersions(t *testing.T) {
	m, ref := newTestTable(t, 1)
	for i := 0; i < 10; i++ {
		if _, err := m.RunWithRetry(0, func(tx *Txn) error {
			return tx.Write(ref, 0, 1, int64(i))
		}); err != nil {
			t.Fatal(err)
		}
		// No other transaction is active: each push drops its predecessor.
		if n := ref.Versions.ChainLen(0); n != 1 {
			t.Fatalf("chain after update %d = %d, want 1", i, n)
		}
	}
	// The newest committed value must survive.
	tx := m.Begin()
	if v, _ := tx.Read(ref, 0, 1); v != 9 {
		t.Fatalf("after trimming value = %d", v)
	}
	tx.Abort()
}

// TestVersionsBoundedByRowsLocked: with one client nothing but the last
// pre-image of each row is ever kept, however many transactions run.
func TestVersionsBoundedByRowsLocked(t *testing.T) {
	const rows = 300
	m, ref := newTestTable(t, rows)
	locked := map[int64]bool{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100_000; i++ {
		row := rng.Int63n(rows)
		locked[row] = true
		if _, err := m.RunWithRetry(0, func(tx *Txn) error {
			return tx.WriteFunc(ref, row, 1, func(v int64) int64 { return v + 1 })
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := ref.Versions.Len(); n > len(locked) {
		t.Fatalf("%d versions live for %d distinct rows locked", n, len(locked))
	}
}

// TestSnapshotReaderSurvivesTrimming: the version an active reader needs
// outlives every push made while it runs, and the first push after it
// finishes collapses the chain.
func TestSnapshotReaderSurvivesTrimming(t *testing.T) {
	m, ref := newTestTable(t, 1)
	update := func(v int64) {
		t.Helper()
		if _, err := m.RunWithRetry(0, func(tx *Txn) error {
			return tx.Write(ref, 0, 1, v)
		}); err != nil {
			t.Fatal(err)
		}
	}
	update(42)
	reader := m.Begin() // pins the snapshot that reads 42
	for i := 0; i < 10_000; i++ {
		update(int64(1000 + i))
	}
	if v, ok := reader.Read(ref, 0, 1); !ok || v != 42 {
		t.Fatalf("pinned snapshot lost: %d,%v", v, ok)
	}
	// Everything committed after the reader began is still chained, and
	// nothing older than what it reads is.
	if n := ref.Versions.ChainLen(0); n != 10_000 {
		t.Fatalf("chain under an active reader = %d, want 10000", n)
	}
	reader.Abort()
	update(7)
	if n := ref.Versions.ChainLen(0); n != 1 {
		t.Fatalf("chain after the reader finished = %d, want 1", n)
	}
}

// TestMinActiveNeverPassesABeginningTxn: the watermark must not overtake a
// transaction that has drawn its timestamp but is not yet in the active
// set — pushes trim to it, so that would cut a snapshot about to be read.
func TestMinActiveNeverPassesABeginningTxn(t *testing.T) {
	m := NewManager()
	const beginners = 4
	handed := make(chan *Txn, 64) // keeps the beginners ahead of the checker
	var wg sync.WaitGroup
	for g := 0; g < beginners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				handed <- m.Begin()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(handed)
	}()
	for {
		// A watermark read now bounds every transaction active now or
		// begun later, whichever this one turns out to be.
		w := m.MinActive()
		tx, ok := <-handed
		if !ok {
			break
		}
		if tx.Begin() < w {
			t.Errorf("MinActive() = %d passed a transaction with begin %d", w, tx.Begin())
		}
		tx.Abort()
	}
}

func TestConcurrentTransfersConserveMoney(t *testing.T) {
	// Bank-transfer invariant under concurrency: total balance constant.
	const accounts = 20
	const workers = 8
	const transfers = 200
	m, ref := newTestTable(t, accounts)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from := int64((w + i) % accounts)
				to := int64((w + i + 7) % accounts)
				if from == to {
					continue
				}
				_, err := m.RunWithRetry(1000, func(tx *Txn) error {
					if err := tx.WriteFunc(ref, from, 1, func(v int64) int64 { return v - 1 }); err != nil {
						return err
					}
					return tx.WriteFunc(ref, to, 1, func(v int64) int64 { return v + 1 })
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	tx := m.Begin()
	var total int64
	for r := int64(0); r < accounts; r++ {
		v, ok := tx.Read(ref, r, 1)
		if !ok {
			t.Fatalf("row %d invisible", r)
		}
		total += v
	}
	tx.Abort()
	if total != accounts*100 {
		t.Fatalf("total = %d, want %d (money not conserved)", total, accounts*100)
	}
}

func TestLockReentrant(t *testing.T) {
	var l Locks
	if err := l.Acquire(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(1, 5); err != nil {
		t.Fatalf("reentrant acquire: %v", err)
	}
	l.Release(1)
	if h := l.word(1).Load(); h != 0 {
		t.Fatalf("lock word after release = %#x, want 0", h)
	}
}

// TestWriteRejectsUnpublishedRows: a row at or past the table's row count
// is in no snapshot, so Write refuses it as WriteFunc does, before taking a
// lock — the commit that follows writes nothing, stamps no timestamp word
// and sets no update bit.
func TestWriteRejectsUnpublishedRows(t *testing.T) {
	for _, row := range []int64{2, 5, 1 << 20} {
		m, ref := newTestTable(t, 2)
		tx := m.Begin()
		if err := tx.Write(ref, row, 1, 7); err == nil {
			t.Errorf("Write of row %d of a 2-row table succeeded", row)
		}
		if err := tx.WriteFunc(ref, row, 1, func(v int64) int64 { return v + 1 }); err == nil {
			t.Errorf("WriteFunc of row %d of a 2-row table succeeded", row)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if n, bits := ref.Table.UpdateCount(), ref.Table.DirtyOLAP().Count(); n != 0 || bits != 0 {
			t.Errorf("row %d: after the refused writes UpdateCount = %d, dirty bits = %d, want 0 and 0", row, n, bits)
		}
	}
}
