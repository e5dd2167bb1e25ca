package wal

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

func updateRec(ts uint64, table uint16, row int64, col uint32, val int64) *Record {
	return &Record{CommitTS: ts, Ops: []Op{
		{Kind: OpUpdate, Table: table, Row: row, Col: col, Val: val},
	}}
}

func insertRec(ts uint64, table uint16, rows, width int) *Record {
	vals := make([]int64, rows*width)
	for i := range vals {
		vals[i] = int64(ts)*1000 + int64(i)
	}
	return &Record{CommitTS: ts, Ops: []Op{
		{Kind: OpInsert, Table: table, NRows: rows, Width: width, Vals: vals},
	}}
}

func openLog(t *testing.T, fs FS, policy SyncPolicy) *Log {
	t.Helper()
	l, err := Open(fs, "db/wal.log", policy, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func replayAll(t *testing.T, fs FS, from int64) ([]*Record, ReplayStats) {
	t.Helper()
	f, err := fs.Open("db/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []*Record
	st, err := Replay(f, from, func(_ int64, rec *Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l := openLog(t, fs, SyncAlways)
	want := []*Record{
		updateRec(1, 8, 42, 2, 7),
		insertRec(3, 6, 4, 10),
		{CommitTS: 5, Ops: []Op{
			{Kind: OpUpdate, Table: 1, Row: 1, Col: 6, Val: 99},
			{Kind: OpInsert, Table: 5, NRows: 1, Width: 8, Vals: make([]int64, 8)},
		}},
	}
	var mid int64
	for i, rec := range want {
		pos, err := l.Append(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			mid = pos
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, st := replayAll(t, fs, 0)
	if st.Truncated || st.Records != len(want) || st.Replayed != len(want) {
		t.Fatalf("stats %+v, want %d clean records", st, len(want))
	}
	if st.ValidPos != l.Pos() {
		t.Fatalf("valid pos %d, log pos %d", st.ValidPos, l.Pos())
	}
	for i := range want {
		if got[i].CommitTS != want[i].CommitTS ||
			len(got[i].Ops) != len(want[i].Ops) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
		for k := range want[i].Ops {
			w, g := want[i].Ops[k], got[i].Ops[k]
			if g.Kind != w.Kind || g.Table != w.Table || g.Row != w.Row ||
				g.Col != w.Col || g.Val != w.Val || g.NRows != w.NRows || g.Width != w.Width {
				t.Fatalf("record %d op %d: got %+v want %+v", i, k, g, w)
			}
			for x := range w.Vals {
				if g.Vals[x] != w.Vals[x] {
					t.Fatalf("record %d op %d val %d: got %d want %d", i, k, x, g.Vals[x], w.Vals[x])
				}
			}
		}
	}

	// Replaying above a watermark skips the records below it.
	above, st2 := replayAll(t, fs, mid)
	if st2.Records != len(want) || st2.Replayed != len(want)-1 || len(above) != len(want)-1 {
		t.Fatalf("watermark replay: stats %+v, %d records", st2, len(above))
	}
	if above[0].CommitTS != want[1].CommitTS {
		t.Fatalf("watermark replay starts at commit %d, want %d", above[0].CommitTS, want[1].CommitTS)
	}
}

func TestTornTailRecoversToLastValidRecord(t *testing.T) {
	fs := NewMemFS()
	l := openLog(t, fs, SyncAlways)
	for i := uint64(1); i <= 5; i++ {
		if _, err := l.Append(insertRec(i, 5, 2, 8), nil); err != nil {
			t.Fatal(err)
		}
	}
	goodPos := l.Pos()

	// Tear the next record partway through its write.
	fs.CrashAfterWrite(10)
	applied := false
	if _, err := l.Append(insertRec(6, 5, 2, 8), func() { applied = true }); !errors.Is(err, ErrCrash) {
		t.Fatalf("torn append error = %v, want ErrCrash", err)
	}
	if applied {
		t.Fatal("apply ran despite torn write")
	}
	if _, err := l.Append(updateRec(7, 8, 1, 1, 1), nil); err == nil {
		t.Fatal("log accepted an append after breaking")
	}

	img := fs.Crash(true)
	recs, st := replayAll(t, img, 0)
	if !st.Truncated || st.ValidPos != goodPos || len(recs) != 5 {
		t.Fatalf("recovery stats %+v (%d records), want truncated at %d with 5 records", st, len(recs), goodPos)
	}

	// Resuming: truncate the tear, append, and replay sees the new record.
	if err := img.Truncate("db/wal.log", st.ValidPos); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(img, "db/wal.log", SyncAlways, 0, st.ValidPos)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(updateRec(8, 8, 3, 2, 4), nil); err != nil {
		t.Fatal(err)
	}
	recs, st = replayAll(t, img, 0)
	if st.Truncated || len(recs) != 6 || recs[5].CommitTS != 8 {
		t.Fatalf("post-resume replay: stats %+v, %d records", st, len(recs))
	}
}

func TestBitFlipDetected(t *testing.T) {
	fs := NewMemFS()
	l := openLog(t, fs, SyncAlways)
	var positions []int64
	for i := uint64(1); i <= 4; i++ {
		pos, err := l.Append(updateRec(i, 0, int64(i), 5, int64(i)*10), nil)
		if err != nil {
			t.Fatal(err)
		}
		positions = append(positions, pos)
	}
	f, _ := fs.Open("db/wal.log")
	data, _ := io.ReadAll(f)
	f.Close()

	// Flip one bit inside the third record's payload.
	data[positions[1]+frameHeader+2] ^= 0x40
	var recs []*Record
	st, err := Replay(bytes.NewReader(data), 0, func(_ int64, rec *Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.ValidPos != positions[1] || len(recs) != 2 {
		t.Fatalf("bit flip: stats %+v, %d records, want truncation at %d", st, len(recs), positions[1])
	}
}

func TestFsyncFailureBreaksLog(t *testing.T) {
	fs := NewMemFS()
	l := openLog(t, fs, SyncAlways)
	if _, err := l.Append(updateRec(1, 8, 1, 1, 1), nil); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncs(0)
	applied := false
	_, err := l.Append(updateRec(2, 8, 2, 2, 2), func() { applied = true })
	if !IsSyncFailure(err) {
		t.Fatalf("append with failing fsync = %v, want sync failure", err)
	}
	if !applied {
		t.Fatal("apply must run before the fsync: the record was written")
	}
	applied = false
	_, err = l.Append(updateRec(3, 8, 3, 3, 3), func() { applied = true })
	if err == nil {
		t.Fatal("log accepted an append after a durability failure")
	}
	if IsSyncFailure(err) || applied {
		t.Fatalf("refused append: err=%v applied=%v, want a non-sync error and no apply", err, applied)
	}
}

func TestSyncNeverLosesUnsyncedOnCrash(t *testing.T) {
	fs := NewMemFS()
	l := openLog(t, fs, SyncNever)
	for i := uint64(1); i <= 3; i++ {
		if _, err := l.Append(updateRec(i, 7, int64(i), 0, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(4); i <= 6; i++ {
		if _, err := l.Append(updateRec(i, 7, int64(i), 0, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	// A crash that drops unsynced bytes keeps only the synced prefix.
	recs, st := replayAll(t, fs.Crash(false), 0)
	if st.Truncated || len(recs) != 3 {
		t.Fatalf("crash(false) kept %d records (stats %+v), want the 3 synced", len(recs), st)
	}
	// One that keeps page cache contents keeps everything.
	recs, _ = replayAll(t, fs.Crash(true), 0)
	if len(recs) != 6 {
		t.Fatalf("crash(true) kept %d records, want 6", len(recs))
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(fs, "db/wal.log", SyncInterval, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First append syncs (lastSync zero value is long past); later ones
	// within the hour do not.
	if _, err := l.Append(updateRec(1, 7, 1, 0, 1), nil); err != nil {
		t.Fatal(err)
	}
	after1 := l.Synced()
	if after1 != l.Pos() {
		t.Fatalf("first interval append left synced=%d pos=%d", after1, l.Pos())
	}
	if _, err := l.Append(updateRec(2, 7, 2, 0, 1), nil); err != nil {
		t.Fatal(err)
	}
	if l.Synced() != after1 {
		t.Fatal("second append within the interval should not fsync")
	}
}

// TestConcurrentAppendOrderMatchesReplay pins the ordering contract:
// apply functions run in log order, so replay reproduces exactly the
// sequence of applies — the property insert row-ID reassignment needs.
func TestConcurrentAppendOrderMatchesReplay(t *testing.T) {
	fs := NewMemFS()
	l := openLog(t, fs, SyncAlways)
	const workers, per = 8, 50
	var mu sync.Mutex
	var applied []uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(w*per + i + 1)
				rec := updateRec(id, 8, int64(id), 1, int64(id))
				if _, err := l.Append(rec, func() {
					mu.Lock()
					applied = append(applied, id)
					mu.Unlock()
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st := replayAll(t, fs, 0)
	if st.Truncated || len(recs) != workers*per {
		t.Fatalf("replayed %d records (stats %+v), want %d", len(recs), st, workers*per)
	}
	for i, rec := range recs {
		if rec.CommitTS != applied[i] {
			t.Fatalf("replay order diverges at %d: log has commit %d, apply order has %d", i, rec.CommitTS, applied[i])
		}
	}
	appends, syncs, grouped := l.Stats()
	if appends != workers*per || syncs+grouped < appends {
		t.Fatalf("stats appends=%d syncs=%d grouped=%d", appends, syncs, grouped)
	}
}
