package txn

import (
	"fmt"

	"elastichtap/internal/wal"
)

// Replay applies one logged commit the way Commit applied it live: the
// record's ops load, in log order, into a Txn the manager keeps for
// replay, and that Txn's apply runs at the record's commit timestamp — so
// inserts reassign the row IDs they had and update-indication bits evolve
// as they did. The whole record is checked against the registered tables
// before any of it applies. An update must name a row its table had
// before the record: a live commit applies its updates before its
// inserts, so every log the engine writes satisfies that. Then the clock
// moves up to the commit timestamp and the commit is counted.
//
// Replay is recovery's: it runs one record at a time, before any
// transaction begins, and takes no record locks and pushes no pre-images.
func (m *Manager) Replay(rec *wal.Record) error {
	t := &m.replay
	t.writes, t.inserts, t.arena = t.writes[:0], t.inserts[:0], t.arena[:0]
	// A record's ops come in runs of one table, and decoded table names
	// are interned, so a run's name is compared with its first op's and
	// looked up once.
	var ref *TableRef
	var name string
	for i := range rec.Ops {
		op := &rec.Ops[i]
		if ref == nil || op.Table != name {
			if ref = m.tableNamed(op.Table); ref == nil {
				return fmt.Errorf("log names unknown table %q", op.Table)
			}
			name = op.Table
		}
		tab, width := ref.Table, len(ref.Table.Schema().Columns)
		switch op.Kind {
		case wal.OpUpdate:
			if op.Row < 0 || op.Row >= tab.Rows() {
				return fmt.Errorf("log updates row %d of %q outside its %d rows", op.Row, op.Table, tab.Rows())
			}
			if int(op.Col) >= width {
				return fmt.Errorf("log updates column %d of %q (width %d)", op.Col, op.Table, width)
			}
			t.writes = append(t.writes, writeOp{ref: ref, row: op.Row, col: int(op.Col), val: op.Val})
		case wal.OpInsert:
			if op.Width != width {
				return fmt.Errorf("log inserts width %d into %q (width %d)", op.Width, op.Table, width)
			}
			lo := len(t.arena)
			t.arena = append(t.arena, op.Vals...)
			t.inserts = append(t.inserts, insertOp{ref: ref, lo: lo, hi: len(t.arena), width: width})
		default:
			return fmt.Errorf("log op kind %d", op.Kind)
		}
	}
	t.apply(rec.CommitTS)
	m.clock.Store(max(m.clock.Load(), rec.CommitTS))
	m.commits.Add(1)
	return nil
}

// tableNamed returns the registered table called name, or nil.
func (m *Manager) tableNamed(name string) *TableRef {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ref := range m.tables {
		if ref.Table.Schema().Name == name {
			return ref
		}
	}
	return nil
}
