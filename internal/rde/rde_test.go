package rde

import (
	"math/rand"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
)

func newExchange(t *testing.T) (*Exchange, *ch.DB) {
	t.Helper()
	engine := oltp.NewEngine()
	db := ch.Load(engine, ch.TinySizing(), 1)
	return New(engine, 0, 1), db
}

func TestSwitchAndSyncProducesConsistentSnapshot(t *testing.T) {
	x, db := newExchange(t)
	tables := db.Tables()
	set := x.SwitchAndSync(tables)
	if len(set.Snaps) != len(tables) {
		t.Fatalf("snaps = %d", len(set.Snaps))
	}
	snap := set.Snap(ch.TOrderLine)
	if snap == nil || snap.Rows != db.OrderLine.Table().Rows() {
		t.Fatalf("orderline snapshot = %+v", snap)
	}
	// Run updates, then switch again; the sync must make the twins equal.
	rng := rand.New(rand.NewSource(5))
	mgr := db.Engine.Manager()
	for i := 0; i < 30; i++ {
		if _, err := mgr.RunWithRetry(100, db.Payment(rng, 1)); err != nil {
			t.Fatal(err)
		}
	}
	set2 := x.SwitchAndSync(tables)
	if set2.CopiedRows == 0 {
		t.Fatal("payments produced no dirty records to sync")
	}
	wt := db.Warehouse.Table()
	for r := int64(0); r < wt.Rows(); r++ {
		for c := range wt.Schema().Columns {
			if wt.ReadCell(0, r, c) != wt.ReadCell(1, r, c) {
				t.Fatalf("warehouse twin divergence row %d col %d", r, c)
			}
		}
	}
}

func TestETLMakesReplicaFresh(t *testing.T) {
	x, db := newExchange(t)
	tables := db.Tables()
	set := x.SwitchAndSync(tables)
	res := x.ETL(set)
	if res.Bytes == 0 || res.InsertedRows == 0 {
		t.Fatalf("initial ETL copied nothing: %+v", res)
	}
	rep := db.OrderLine.Replica
	if rep.Rows() != db.OrderLine.Table().Rows() {
		t.Fatalf("replica rows = %d, want %d", rep.Rows(), db.OrderLine.Table().Rows())
	}
	// Content equivalence against the snapshot.
	snap := set.Snap(ch.TOrderLine)
	for r := int64(0); r < snap.Rows; r += 101 {
		if !rep.EqualRow(snap.Inst, r) {
			t.Fatalf("replica row %d differs from snapshot", r)
		}
	}
	// Freshness collapses to ~0 after ETL.
	f := x.MeasureFreshness(tables, ch.TOrderLine, 3)
	if f.Nfq != 0 {
		t.Fatalf("Nfq after ETL = %d, want 0", f.Nfq)
	}
	if f.Rate < 0.999 {
		t.Fatalf("freshness rate = %v, want ~1", f.Rate)
	}
}

func TestETLPropagatesUpdates(t *testing.T) {
	x, db := newExchange(t)
	tables := db.Tables()
	x.ETL(x.SwitchAndSync(tables)) // baseline replica

	rng := rand.New(rand.NewSource(6))
	mgr := db.Engine.Manager()
	for i := 0; i < 20; i++ {
		if _, err := mgr.RunWithRetry(100, db.Payment(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	set := x.SwitchAndSync(tables)
	res := x.ETL(set)
	if res.UpdatedRows == 0 {
		t.Fatal("ETL propagated no updated rows")
	}
	// The warehouse replica now matches the snapshot for row 1 (w=2).
	rep := db.Warehouse.Replica
	snap := set.Snap(ch.TWarehouse)
	for r := int64(0); r < snap.Rows; r++ {
		if !rep.EqualRow(snap.Inst, r) {
			t.Fatalf("warehouse replica row %d stale after ETL", r)
		}
	}
}

func TestFreshnessCountsInsertsAndUpdates(t *testing.T) {
	x, db := newExchange(t)
	tables := db.Tables()
	x.ETL(x.SwitchAndSync(tables))

	rng := rand.New(rand.NewSource(7))
	mgr := db.Engine.Manager()
	for i := 0; i < 10; i++ {
		if _, err := mgr.RunWithRetry(100, db.NewOrder(rng, 1)); err != nil {
			t.Fatal(err)
		}
	}
	f := x.MeasureFreshness(tables, ch.TOrderLine, 3)
	if f.QueryFreshRows < 50 {
		t.Fatalf("fresh fact rows = %d, want >= 50", f.QueryFreshRows)
	}
	if f.QueryUpdatedRows != 0 {
		t.Fatalf("orderline is insert-only; updated = %d", f.QueryUpdatedRows)
	}
	wantNfq := f.QueryFreshRows * db.OrderLine.Table().Schema().RowBytes()
	if f.Nfq != wantNfq {
		t.Fatalf("Nfq = %d, want %d (whole-row accounting)", f.Nfq, wantNfq)
	}
	wantCols := f.QueryFreshRows * 3 * columnar.WordBytes
	if f.NfqColumns != wantCols {
		t.Fatalf("NfqColumns = %d, want %d", f.NfqColumns, wantCols)
	}
	if f.Nft <= f.Nfq {
		t.Fatalf("Nft = %d must exceed Nfq = %d (stock updates, orders...)", f.Nft, f.Nfq)
	}
	if f.Rate >= 1 {
		t.Fatalf("rate = %v, want < 1 with fresh data", f.Rate)
	}
}

func TestSourceForMethods(t *testing.T) {
	x, db := newExchange(t)
	tables := db.Tables()
	set := x.SwitchAndSync(tables)
	x.ETL(set)

	// Grow the table so split has a fresh suffix.
	rng := rand.New(rand.NewSource(8))
	mgr := db.Engine.Manager()
	for i := 0; i < 5; i++ {
		if _, err := mgr.RunWithRetry(100, db.NewOrder(rng, 1)); err != nil {
			t.Fatal(err)
		}
	}
	set = x.SwitchAndSync(tables)
	snap := set.Snap(ch.TOrderLine)
	repRows := db.OrderLine.Replica.Rows()

	replica := x.SourceFor(ReadReplica, snap)
	if len(replica.Parts) != 1 || replica.Parts[0].Socket != 1 || replica.Parts[0].Hi != repRows {
		t.Fatalf("replica source = %+v", replica.Parts)
	}
	full := x.SourceFor(ReadSnapshot, snap)
	if len(full.Parts) != 1 || full.Parts[0].Socket != 0 || full.Parts[0].Hi != snap.Rows {
		t.Fatalf("snapshot source = %+v", full.Parts)
	}
	split := x.SourceFor(ReadSplit, snap)
	if len(split.Parts) != 2 {
		t.Fatalf("split parts = %d", len(split.Parts))
	}
	if split.Parts[0].Hi != repRows || split.Parts[1].Lo != repRows || split.Parts[1].Hi != snap.Rows {
		t.Fatalf("split ranges wrong: %+v", split.Parts)
	}
	if split.Rows() != snap.Rows {
		t.Fatalf("split covers %d rows, want %d", split.Rows(), snap.Rows)
	}
}

func TestETLPreservesPostSnapshotBits(t *testing.T) {
	x, db := newExchange(t)
	tables := []*oltp.TableHandle{db.Warehouse}
	x.ETL(x.SwitchAndSync(tables))

	// Update after taking the next snapshot: the bit must survive the ETL.
	set := x.SwitchAndSync(tables)
	wt := db.Warehouse.Table()
	wt.UpdateCell(0, ch.WYtd, columnar.EncodeFloat(777), db.Engine.Manager().Now()+100)
	x.ETL(set)
	if st := db.Warehouse.Fresh(); st.UpdatedRows != 1 {
		t.Fatalf("post-snapshot update lost: fresh updated = %d", st.UpdatedRows)
	}
}

func TestCounters(t *testing.T) {
	x, db := newExchange(t)
	x.ETL(x.SwitchAndSync(db.Tables()))
	switches, _, etlBytes := x.Counters()
	if switches != 1 {
		t.Fatalf("switches = %d, want 1 per SwitchAndSync call", switches)
	}
	if etlBytes == 0 {
		t.Fatal("etl bytes not counted")
	}
}
