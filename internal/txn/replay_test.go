package txn

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/wal"
)

// registerTable registers an Int64 table of width columns with m, loaded
// with rows rows whose cells hold their own row-major position.
func registerTable(m *Manager, name string, width, rows int) *TableRef {
	cols := make([]columnar.ColumnDef, width)
	for c := range cols {
		cols[c] = columnar.ColumnDef{Name: string(rune('a' + c)), Type: columnar.Int64}
	}
	tab := columnar.NewTable(columnar.Schema{Name: name, Columns: cols}, 1<<14)
	rs := make([][]int64, rows)
	for i := range rs {
		rs[i] = make([]int64, width)
		for c := range rs[i] {
			rs[i][c] = int64(i*width + c)
		}
	}
	tab.AppendRows(rs, 0)
	return m.Register(tab)
}

// newReplayTables registers an updated table "acct" (3 columns, rows
// rows) and an insert-mostly table "hist" (2 columns, rows/2 rows) with m,
// loaded with the same values on every call.
func newReplayTables(m *Manager, rows int) (acct, hist *TableRef) {
	return registerTable(m, "acct", 3, rows), registerTable(m, "hist", 2, rows/2)
}

// tableState is everything a commit's apply can change in a table.
type tableState struct {
	Rows       int64
	Cells      [2][][]int64 // per instance, per row
	RowTS      []uint64
	DirtyOLAP  []bool
	ColUpdates []int64
	Updates    int64
}

func stateOf(tab *columnar.Table) tableState {
	s := tableState{Rows: tab.Rows(), Updates: tab.UpdateCount()}
	width := len(tab.Schema().Columns)
	for r := int64(0); r < s.Rows; r++ {
		for k := range s.Cells {
			row := make([]int64, width)
			for c := range row {
				row[c] = tab.ReadCell(k, r, c)
			}
			s.Cells[k] = append(s.Cells[k], row)
		}
		s.RowTS = append(s.RowTS, tab.RowTS(r))
	}
	s.DirtyOLAP = make([]bool, s.Rows)
	tab.DirtyOLAP().ForEachSet(func(i int) {
		if int64(i) < s.Rows {
			s.DirtyOLAP[i] = true
		}
	})
	for c := 0; c < width; c++ {
		s.ColUpdates = append(s.ColUpdates, tab.ColumnUpdateCount(c))
	}
	return s
}

// drainDirty drains instance k's update-indication bits through a sync
// and returns the rows it visited, in order.
func drainDirty(tab *columnar.Table, k int) []int64 {
	var rows []int64
	tab.SyncTo(k, func(row int64) func() {
		rows = append(rows, row)
		return func() {}
	})
	return rows
}

// TestReplayMatchesLiveCommits: a log replayed into a fresh manager over
// fresh tables ends in the state the live commits that wrote it left —
// both instances' cells, row timestamps, both instances' dirty bits,
// dirtyOLAP, the column and table update counts, the clock and the commit
// count.
func TestReplayMatchesLiveCommits(t *testing.T) {
	const rows = 64
	a := NewManager()
	acctA, histA := newReplayTables(a, rows)
	fs := wal.NewMemFS()
	l, err := wal.Open(fs, "wal.log", wal.SyncNever, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.SetWAL(l)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		tx := a.Begin()
		switch rng.Intn(4) {
		case 0: // updates across both tables, a cell sometimes written twice
			for n := 1 + rng.Intn(6); n > 0; n-- {
				ref := acctA
				if rng.Intn(3) == 0 {
					ref = histA
				}
				row := rng.Int63n(ref.Table.Rows())
				col := rng.Intn(len(ref.Table.Schema().Columns))
				if err := tx.Write(ref, row, col, rng.Int63()); err != nil {
					t.Fatal(err)
				}
			}
		case 1: // inserts, then updates to rows inserted by earlier commits
			slot, err := tx.Insert(histA, 1+rng.Intn(3), nil)
			if err != nil {
				t.Fatal(err)
			}
			for k := range slot {
				slot[k] = rng.Int63()
			}
			if slot, err = tx.Insert(acctA, 1, nil); err != nil {
				t.Fatal(err)
			}
			copy(slot, []int64{int64(i), -1, -2})
			if err := tx.Write(acctA, acctA.Table.Rows()-1, 2, int64(i)); err != nil {
				t.Fatal(err)
			}
		case 2: // read-only: logged as an empty record
			tx.Read(acctA, rng.Int63n(rows), 0)
		default: // an update and an insert on one table
			if err := tx.WriteFunc(histA, rng.Int63n(histA.Table.Rows()), 1, func(v int64) int64 { return v + 1 }); err != nil {
				t.Fatal(err)
			}
			slot, err := tx.Insert(histA, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			copy(slot, []int64{1, 2, 3, 4})
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	b := NewManager()
	acctB, histB := newReplayTables(b, rows)
	f, err := fs.Open("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := wal.Replay(f, 0, func(_ int64, rec *wal.Record) error { return b.Replay(rec) })
	if err != nil || st.Truncated || st.Replayed != 400 {
		t.Fatalf("replay: err=%v stats=%+v", err, st)
	}

	if a.Now() != b.Now() || a.Commits() != b.Commits() {
		t.Fatalf("replayed clock %d and %d commits, live %d and %d", b.Now(), b.Commits(), a.Now(), a.Commits())
	}
	for _, p := range [][2]*TableRef{{acctA, acctB}, {histA, histB}} {
		live, replayed := p[0].Table, p[1].Table
		name := live.Schema().Name
		if x, y := stateOf(live), stateOf(replayed); !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: replayed state differs from the live one:\nlive     %+v\nreplayed %+v", name, x, y)
		}
		if live.UpdateCount() == 0 {
			t.Fatalf("%s: the history updated nothing", name)
		}
		if live.ActiveIndex() != replayed.ActiveIndex() {
			t.Fatalf("%s: active instance %d, replayed %d", name, live.ActiveIndex(), replayed.ActiveIndex())
		}
		for k := 0; k < 2; k++ {
			if x, y := drainDirty(live, k), drainDirty(replayed, k); !reflect.DeepEqual(x, y) {
				t.Fatalf("%s: instance %d dirty rows %v, replayed %v", name, k, x, y)
			}
		}
	}
}

// TestReplayRefusesWholeRecord: a record with an op no table can take is
// refused with the op's error, and the valid op before it does not apply
// either — no table, nor the clock or the commit count, changes.
func TestReplayRefusesWholeRecord(t *testing.T) {
	const rows = 8
	update := wal.Op{Kind: wal.OpUpdate, Table: "acct", Row: 1, Col: 2, Val: 99}
	insert := wal.Op{Kind: wal.OpInsert, Table: "hist", NRows: 1, Width: 2, Vals: []int64{5, 6}}
	for _, tc := range []struct {
		name  string
		valid wal.Op
		bad   wal.Op
		want  string
	}{
		{"unknown table", update, wal.Op{Kind: wal.OpUpdate, Table: "nope"}, `log names unknown table "nope"`},
		{"negative row", insert, wal.Op{Kind: wal.OpUpdate, Table: "acct", Row: -1}, "log updates row -1"},
		{"row at Rows()", update, wal.Op{Kind: wal.OpUpdate, Table: "acct", Row: rows}, "log updates row 8"},
		{"row inserted by the record", insert, wal.Op{Kind: wal.OpUpdate, Table: "hist", Row: rows / 2}, "log updates row 4"},
		{"column past the width", insert, wal.Op{Kind: wal.OpUpdate, Table: "acct", Col: 3}, "log updates column 3"},
		{"wrong insert width", update, wal.Op{Kind: wal.OpInsert, Table: "acct", NRows: 1, Width: 2, Vals: []int64{1, 2}}, "log inserts width 2"},
		{"unknown kind", update, wal.Op{Kind: 9, Table: "acct"}, "log op kind 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager()
			m.RestoreState(10, 3)
			acct, hist := newReplayTables(m, rows)
			before := [2]tableState{stateOf(acct.Table), stateOf(hist.Table)}
			err := m.Replay(&wal.Record{TxnID: 1, CommitTS: 11, Ops: []wal.Op{tc.valid, tc.bad}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("replay returned %v, want an error containing %q", err, tc.want)
			}
			if after := [2]tableState{stateOf(acct.Table), stateOf(hist.Table)}; !reflect.DeepEqual(before, after) {
				t.Fatalf("a refused record changed the tables:\nbefore %+v\nafter  %+v", before, after)
			}
			if m.Now() != 10 || m.Commits() != 3 {
				t.Fatalf("a refused record moved the clock to %d and the commit count to %d", m.Now(), m.Commits())
			}
		})
	}
}

// TestReplayAllocs: once its buffers have grown, Replay of a NewOrder-
// shaped record — updates to two tables, inserts into three — allocates
// nothing.
func TestReplayAllocs(t *testing.T) {
	m := NewManager()
	registerTable(m, "district", 11, 10)
	registerTable(m, "stock", 17, 100)
	registerTable(m, "orders", 8, 0)
	registerTable(m, "new_order", 3, 0)
	registerTable(m, "order_line", 10, 0)

	rec := &wal.Record{Ops: []wal.Op{{Kind: wal.OpUpdate, Table: "district", Row: 3, Col: 10, Val: 1}}}
	for i := int64(0); i < 10; i++ {
		for _, col := range []uint32{2, 13, 14, 16} {
			rec.Ops = append(rec.Ops, wal.Op{Kind: wal.OpUpdate, Table: "stock", Row: i * 7, Col: col, Val: i})
		}
	}
	for _, ins := range []struct {
		name        string
		rows, width int
	}{{"orders", 1, 8}, {"new_order", 1, 3}, {"order_line", 10, 10}} {
		rec.Ops = append(rec.Ops, wal.Op{Kind: wal.OpInsert, Table: ins.name, NRows: ins.rows, Width: ins.width,
			Vals: make([]int64, ins.rows*ins.width)})
	}
	replay := func() {
		rec.CommitTS++
		if err := m.Replay(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		replay()
	}
	if allocs := testing.AllocsPerRun(200, replay); allocs != 0 {
		t.Fatalf("Replay allocates %.1f objects per NewOrder record, want 0", allocs)
	}
}
