package ch

import (
	"math/rand"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
)

func TestDeliveryStampsOrderLines(t *testing.T) {
	db := loadTiny(t)
	mgr := db.Engine.Manager()
	rng := rand.New(rand.NewSource(11))

	// Insert a fresh order (carrier 0 = undelivered), then pretend the OLAP
	// replica synchronized here. Inserts set no update bit, so only the
	// delivery's updates are visible below the watermark.
	if _, err := mgr.RunWithRetry(10, db.NewOrder(rng, 1)); err != nil {
		t.Fatal(err)
	}
	if n := db.OrderLine.Table().DirtyOLAP().Count(); n != 0 {
		t.Fatalf("loading and NewOrder set %d orderline update bits", n)
	}
	updBefore := db.OrderLine.Table().Active().DirtyCount()

	if _, err := mgr.RunWithRetry(10, db.Delivery(rng, 1)); err != nil {
		t.Fatal(err)
	}
	// Delivery must have updated at least one order's carrier and lines.
	ot := db.Orders.Table()
	delivered := 0
	for r := int64(0); r < ot.Rows(); r++ {
		if ot.ReadActive(r, OCarrierID) != 0 && ot.ReadActive(r, OWID) == 1 {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("no orders delivered")
	}
	// OrderLine gained UPDATED fresh rows (not only inserted ones): this is
	// what invalidates split access (§5.2).
	if db.OrderLine.Table().Active().DirtyCount() <= updBefore {
		t.Fatal("delivery set no orderline update-indication bits")
	}
	if db.OrderLine.Table().FreshSince(db.OrderLine.Table().Rows()).UpdatedRows == 0 {
		t.Fatal("delivery updates invisible to freshness accounting")
	}
}

func TestDeliveryInvalidatesSplitAccess(t *testing.T) {
	// End-to-end: after Delivery updates OrderLine rows below the replica
	// watermark, the scheduler must not choose split access for Q6.
	db := loadTiny(t)
	mgr := db.Engine.Manager()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3; i++ {
		if _, err := mgr.RunWithRetry(10, db.NewOrder(rng, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the replica having synced everything BEFORE the delivery:
	// the updated rows below the watermark are what split cannot see.
	watermark := db.OrderLine.Table().Rows()
	if _, err := mgr.RunWithRetry(10, db.Delivery(rng, 1)); err != nil {
		t.Fatal(err)
	}
	fresh := db.OrderLine.Table().FreshSince(watermark)
	if fresh.UpdatedRows == 0 {
		t.Fatal("expected updated orderline rows below the watermark")
	}
}

func TestOrderStatusReadOnly(t *testing.T) {
	db := loadTiny(t)
	mgr := db.Engine.Manager()
	rng := rand.New(rand.NewSource(13))
	rowsBefore := db.Orders.Table().Rows()
	dirtyBefore := db.Customer.Table().DirtyOLAP().Count()
	for i := 0; i < 10; i++ {
		if _, err := mgr.RunWithRetry(10, db.OrderStatus(rng, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Orders.Table().Rows() != rowsBefore {
		t.Fatal("read-only transaction inserted rows")
	}
	if db.Customer.Table().DirtyOLAP().Count() != dirtyBefore {
		t.Fatal("read-only transaction dirtied rows")
	}
}

func TestStockLevelReadOnly(t *testing.T) {
	db := loadTiny(t)
	mgr := db.Engine.Manager()
	rng := rand.New(rand.NewSource(14))
	if _, err := mgr.RunWithRetry(10, db.NewOrder(rng, 2)); err != nil {
		t.Fatal(err)
	}
	dirtyBefore := db.Stock.Table().DirtyOLAP().Count()
	for i := 0; i < 5; i++ {
		if _, err := mgr.RunWithRetry(10, db.StockLevel(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stock.Table().DirtyOLAP().Count() != dirtyBefore {
		t.Fatal("stock-level dirtied stock rows")
	}
}

func TestFullMixRuns(t *testing.T) {
	e := oltp.NewEngine()
	db := Load(e, TinySizing(), 5)
	e.Workers().SetWorkload(NewFullMix(db, 5))
	e.Workers().ExecuteBatch(100, 4)
	if got := e.Workers().Executed(); got != 100 {
		t.Fatalf("executed = %d (failed=%d)", got, e.Workers().Failed())
	}
	if e.Workers().Failed() != 0 {
		t.Fatalf("failed = %d", e.Workers().Failed())
	}
}

func TestDeliveryVisibleToSnapshotIsolation(t *testing.T) {
	// A long-running reader that began before a delivery must keep seeing
	// carrier 0 via the version chains.
	db := loadTiny(t)
	mgr := db.Engine.Manager()
	rng := rand.New(rand.NewSource(15))
	if _, err := mgr.RunWithRetry(10, db.NewOrder(rng, 1)); err != nil {
		t.Fatal(err)
	}
	// Find the undelivered order row.
	ot := db.Orders.Table()
	var target int64 = -1
	for r := int64(0); r < ot.Rows(); r++ {
		if ot.ReadActive(r, OCarrierID) == 0 {
			target = r
			break
		}
	}
	if target < 0 {
		t.Skip("no undelivered order in generated data")
	}
	reader := mgr.Begin()
	if _, err := mgr.RunWithRetry(10, db.Delivery(rng, 1)); err != nil {
		t.Fatal(err)
	}
	if v, ok := reader.Read(db.Orders.Ref, target, OCarrierID); !ok || v != 0 {
		t.Fatalf("snapshot reader sees carrier %d (ok=%v), want 0", v, ok)
	}
	reader.Abort()
	// A fresh reader sees the delivery.
	after := mgr.Begin()
	if v, _ := after.Read(db.Orders.Ref, target, OCarrierID); v == 0 {
		t.Fatal("delivery invisible to new snapshot")
	}
	after.Abort()

	_ = columnar.WordBytes
}
