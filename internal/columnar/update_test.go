package columnar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elastichtap/internal/bitset"
)

// sameTables fails unless a and b hold the same state: both instances'
// cells, the row timestamps, both instances' dirty bits, dirtyOLAP, every
// column's update count, the table's update count, where the twins' bytes
// are, and which chunks the replicas hold of their own.
func sameTables(t *testing.T, what string, a, b *Table, ra, rb *Replica) {
	t.Helper()
	if a.Rows() != b.Rows() || a.ActiveIndex() != b.ActiveIndex() {
		t.Fatalf("%s: %d rows, instance %d active; want %d, %d", what, a.Rows(), a.ActiveIndex(), b.Rows(), b.ActiveIndex())
	}
	for k := 0; k < 2; k++ {
		for c := range a.Schema().Columns {
			sameWords(t, fmt.Sprintf("%s: instance %d col %d", what, k, c), a.inst[k].Col(c), b.inst[k].Col(c), a.Rows())
		}
		sameBits(t, fmt.Sprintf("%s: instance %d dirty", what, k), a.inst[k].dirty, b.inst[k].dirty)
	}
	sameWords(t, what+": timestamps", a.rowTS, b.rowTS, a.Rows())
	sameBits(t, what+": dirtyOLAP", a.DirtyOLAP(), b.DirtyOLAP())
	for c := range a.Schema().Columns {
		if x, y := a.ColumnUpdateCount(c), b.ColumnUpdateCount(c); x != y {
			t.Fatalf("%s: column %d update count %d, want %d", what, c, x, y)
		}
	}
	if x, y := a.UpdateCount(), b.UpdateCount(); x != y {
		t.Fatalf("%s: update count %d, want %d", what, x, y)
	}
	as, ap := a.TwinBytes()
	bs, bp := b.TwinBytes()
	if as != bs || ap != bp {
		t.Fatalf("%s: TwinBytes %d shared, %d private; want %d, %d", what, as, ap, bs, bp)
	}
	as, ap = ra.Bytes()
	bs, bp = rb.Bytes()
	if as != bs || ap != bp {
		t.Fatalf("%s: replica Bytes %d shared, %d own; want %d, %d", what, as, ap, bs, bp)
	}
}

// sameWords compares rows [0, rows) of x and y a chunk run at a time.
func sameWords(t *testing.T, what string, x, y *Words, rows int64) {
	t.Helper()
	x.Scan(0, rows, func(vals []int64, base int64) {
		want := y.Slice(base, base+int64(len(vals)))
		for i, v := range vals {
			if v != want[i] {
				t.Fatalf("%s: row %d = %d, want %d", what, base+int64(i), v, want[i])
			}
		}
	})
}

// sameBits compares the set bits of x and y.
func sameBits(t *testing.T, what string, x, y *bitset.Atomic) {
	t.Helper()
	var xs, ys []int
	x.ForEachSet(func(i int) { xs = append(xs, i) })
	y.ForEachSet(func(i int) { ys = append(ys, i) })
	if !slices.Equal(xs, ys) {
		t.Fatalf("%s: rows %v, want %v", what, xs, ys)
	}
}

// TestUpdateCellsMatchesCellAtATimeOracle: a batch through UpdateCells
// leaves a table exactly as its cells through UpdateCell one at a time, in
// order, leave an identical twin table. The batches repeat rows (a row's
// cells in a run, and again later), repeat cells (the later value wins but
// both count), write values equal to the cell's, and land in chunks the
// twins still share, chunks an update has split, and chunks the replica
// lists — the exchange between batches syncs, switches and absorbs, and
// appends add chunks nobody has written yet.
func TestUpdateCellsMatchesCellAtATimeOracle(t *testing.T) {
	schema := intSchema("t", "a", "b", "c", "d", "e")
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batched, single := NewTable(schema, 0), NewTable(schema, 0)
		reps := [2]*Replica{NewReplica(batched), NewReplica(single)}
		tabs := [2]*Table{batched, single}
		for _, tab := range tabs {
			appendSeq(tab, 0, 2*ChunkSize+100, 1)
		}
		ts := uint64(2)
		var cells []Cell
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(12); {
			case op == 0: // the exchange: the replica lists what both twins share
				for i, tab := range tabs {
					tab.SyncTo(tab.ActiveIndex(), lockNothing)
					sw := tab.Switch()
					reps[i].CopyInserts(sw.Snapshot, reps[i].Rows(), sw.SnapshotRows)
				}
			case op == 1: // fresh chunks, shared by the twins alone
				lo := batched.Rows()
				hi := lo + 1 + rng.Int63n(ChunkSize/2)
				for _, tab := range tabs {
					appendSeq(tab, lo, hi, ts)
				}
			default:
				cells = randomBatch(rng, cells[:0], batched)
				batched.BeginApply()
				batched.UpdateCells(cells, ts)
				batched.EndApply()
				single.BeginApply()
				for _, c := range cells {
					single.UpdateCell(c.Row, c.Col, c.Val, ts)
				}
				single.EndApply()
			}
			ts++
			if step%20 == 19 {
				sameTables(t, fmt.Sprintf("seed %d step %d", seed, step), batched, single, reps[0], reps[1])
			}
		}
		sameTables(t, fmt.Sprintf("seed %d", seed), batched, single, reps[0], reps[1])
	}
}

// randomBatch appends to cells one commit's writes to tab: a few rows,
// each a run of cells — sometimes the same cell twice, sometimes the value
// the cell already holds — and sometimes a row listed again at the end.
func randomBatch(rng *rand.Rand, cells []Cell, tab *Table) []Cell {
	width := len(tab.Schema().Columns)
	for n := 1 + rng.Intn(8); n > 0; n-- {
		row := rng.Int63n(tab.Rows())
		if rng.Intn(3) == 0 { // the rows near a chunk boundary, where batches collide
			row = min(ChunkSize-3+rng.Int63n(6), tab.Rows()-1)
		}
		for k := 1 + rng.Intn(width); k > 0; k-- {
			c := Cell{Row: row, Col: rng.Intn(width), Val: rng.Int63n(1000)}
			switch rng.Intn(4) {
			case 0:
				c.Val = tab.ReadActive(row, c.Col) // an equal-value write
			case 1:
				cells = append(cells, Cell{Row: row, Col: c.Col, Val: -c.Val}) // overwritten below
			}
			cells = append(cells, c)
		}
	}
	if rng.Intn(3) == 0 {
		c := cells[rng.Intn(len(cells))]
		cells = append(cells, Cell{Row: c.Row, Col: c.Col, Val: c.Val + 1})
	}
	return cells
}
