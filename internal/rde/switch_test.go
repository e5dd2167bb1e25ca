package rde_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
	"elastichtap/internal/rde"
	"elastichtap/internal/txn"
)

// TestNoIncrementLostAcrossSwitches: two goroutines increment cells while
// the exchange switches and ETLs in a loop. An increment reads the cell it
// adds to, so one that read an instance lacking a committed value shows as
// a short sum; a replica row that a quiesced ETL leaves different from the
// active instance is a bit cleared for an update the copy did not carry.
func TestNoIncrementLostAcrossSwitches(t *testing.T) {
	const rows = 2000
	e := oltp.NewEngine()
	h := e.CreateTable(columnar.Schema{
		Name:    "counters",
		Columns: []columnar.ColumnDef{{Name: "n", Type: columnar.Int64}},
	}, rows)
	tab := h.Table()
	zero := make([][]int64, rows)
	for i := range zero {
		zero[i] = []int64{0}
	}
	tab.AppendRows(zero, 0)
	x := rde.New(e, 0, 1)
	tables := e.Tables()
	x.ETL(x.SwitchAndSync(tables)) // the replica holds every row: from here on ETLs copy updates in place

	var commits atomic.Int64
	stop := churn(1, func(rng *rand.Rand) {
		row := rng.Int63n(rows)
		if _, err := e.Manager().RunWithRetry(1<<20, func(tx *txn.Txn) error {
			return tx.WriteFunc(h.Ref, row, 0, func(v int64) int64 { return v + 1 })
		}); err != nil {
			t.Errorf("increment: %v", err)
			return
		}
		commits.Add(1)
	})
	var barrierRows int64
	cycles := 0
	for ; commits.Load() < 3000 || cycles < 10; cycles++ {
		set := x.SwitchAndSync(tables)
		barrierRows += set.BarrierRows
		x.ETL(set)
	}
	stop()

	var sum int64
	for r := int64(0); r < rows; r++ {
		sum += tab.ReadActive(r, 0)
	}
	if n := commits.Load(); sum != n {
		t.Errorf("cells sum to %d after %d committed increments: %d lost across %d switches", sum, n, n-sum, cycles)
	}
	x.ETL(x.SwitchAndSync(tables))
	for r := int64(0); r < rows; r++ {
		if !h.Replica.EqualRow(tab.Active(), r) {
			t.Errorf("row %d: replica differs from the active instance (%d) after a quiesced ETL: stale for good",
				r, tab.ReadActive(r, 0))
		}
		if tab.ReadCell(0, r, 0) != tab.ReadCell(1, r, 0) {
			t.Errorf("row %d: twin instances hold %d and %d after a quiesced switch", r, tab.ReadCell(0, r, 0), tab.ReadCell(1, r, 0))
		}
	}
	if n := tab.Inactive().DirtyCount(); n != 0 {
		t.Errorf("inactive instance carries %d dirty bits", n)
	}
	if _, synced, _ := x.Counters(); x.BarrierRows() != barrierRows || barrierRows > synced {
		t.Errorf("BarrierRows() = %d, the sets reported %d of %d synced rows", x.BarrierRows(), barrierRows, synced)
	}
}

// TestSnapshotSetIsOneCut evaluates CH's constraint o_ol_cnt = |orderlines|
// on the snapshot instances of sets taken while NewOrders commit. A
// NewOrder inserts its order and its lines in one transaction, so a set
// whose tables were cut at different commits holds an order without its
// lines or lines without their order.
func TestSnapshotSetIsOneCut(t *testing.T) {
	db := ch.Load(oltp.NewEngine(), ch.TinySizing(), 1)
	x, tables := rde.New(db.Engine, 0, 1), db.Tables()
	stop := churn(7, func(rng *rand.Rand) {
		w := 1 + rng.Int63n(int64(db.Sizing.Warehouses))
		if _, err := db.Engine.Manager().RunWithRetry(1<<20, db.NewOrder(rng, w)); err != nil {
			t.Errorf("new order: %v", err)
		}
	})
	defer stop()
	// Twenty sets that each hold orders the one before did not.
	var lastOrders int64
	for grew := 0; grew < 20; {
		set := x.SwitchAndSync(tables)
		orders, lines := set.Snap(ch.TOrders), set.Snap(ch.TOrderLine)
		if orders.Rows > lastOrders {
			grew++
		}
		lastOrders = orders.Rows
		checkOrderLineCounts(t, orders, lines)
	}
}

// checkOrderLineCounts holds every order of the orders snapshot to as many
// lines in the order-line snapshot as its o_ol_cnt says, and every line to
// an order.
func checkOrderLineCounts(t *testing.T, orders, lines *rde.Snapshot) {
	t.Helper()
	cell := func(s *rde.Snapshot, row int64, col int) int64 { return s.Inst.Col(col).Load(row) }
	count := map[uint64]int64{}
	for r := int64(0); r < lines.Rows; r++ {
		count[ch.OrderKey(cell(lines, r, ch.OLWID), cell(lines, r, ch.OLDID), cell(lines, r, ch.OLOID))]++
	}
	for r := int64(0); r < orders.Rows; r++ {
		k := ch.OrderKey(cell(orders, r, ch.OWID), cell(orders, r, ch.ODID), cell(orders, r, ch.OID))
		if want := cell(orders, r, ch.OOlCnt); count[k] != want {
			t.Errorf("order row %d of %d: o_ol_cnt %d, %d of the snapshot's %d order lines are its own",
				r, orders.Rows, want, count[k], lines.Rows)
		}
		delete(count, k)
	}
	if len(count) != 0 {
		t.Errorf("%d orders have lines among the snapshot's %d but are not among its %d orders", len(count), lines.Rows, orders.Rows)
	}
}

// TestPanicAtTheCutReleasesEverything: the crash harness kills the engine
// by panicking in the "switch" probe, inside the commit barrier. The gate,
// the scan latches and the exchange lock must all come back, or the
// goroutines a dead cycle leaves behind hang instead of being abandoned.
func TestPanicAtTheCutReleasesEverything(t *testing.T) {
	db := ch.Load(oltp.NewEngine(), ch.TinySizing(), 1)
	x, tables := rde.New(db.Engine, 0, 1), db.Tables()
	mgr := db.Engine.Manager()
	rng := rand.New(rand.NewSource(9))
	payment := func() {
		t.Helper()
		if _, err := mgr.RunWithRetry(100, db.Payment(rng, 1)); err != nil {
			t.Fatal(err)
		}
	}
	payment() // warehouse, district and customer are updated tables: their latches are taken
	x.SetProbe(func(point, table string) {
		if point == "switch" && table == ch.TDistrict {
			panic("killed mid-switch")
		}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the probe did not fire")
			}
		}()
		x.SwitchAndSync(tables)
	}()
	x.SetProbe(nil)
	payment()                            // the commit gate is open
	release := x.BeginScan(ch.TDistrict) // its scan latch is free
	release()
	x.SwitchAndSync(tables) // and so is the exchange
}
