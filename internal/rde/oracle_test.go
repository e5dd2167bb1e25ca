package rde_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"elastichtap"
	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/core"
	"elastichtap/internal/oltp"
	"elastichtap/internal/rde"
	"elastichtap/internal/txn"
	"elastichtap/internal/wal"
)

// churnOracle holds oltp.TableHandle.Fresh — the one count every freshness
// probe reads — to an independent recount while CH transactions, instance
// switches and delta-ETLs interleave.
type churnOracle struct {
	t      *testing.T
	sys    *elastichtap.System
	core   *core.System
	db     *ch.DB
	tables []*oltp.TableHandle
	fs     *wal.MemFS

	// sawBitAboveWatermark records that some check met an update bit at or
	// above a replica watermark: the population that makes the prefix
	// limit of the count matter.
	sawBitAboveWatermark bool
}

const oracleDir = "data"

func newChurnOracle(t *testing.T) *churnOracle {
	t.Helper()
	sys, err := elastichtap.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	o := &churnOracle{t: t, sys: sys, core: sys.Core(), fs: wal.NewMemFS()}
	o.db = sys.LoadCH(0.001, 11)
	o.tables = o.core.OLTPE.Tables()
	if err := sys.EnableWAL(o.fs, oracleDir, elastichtap.SyncAlways, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CheckpointDB(o.fs, oracleDir); err != nil {
		t.Fatal(err)
	}
	return o
}

// body draws one transaction: NewOrder and Payment in equal parts and an
// occasional Delivery, which updates orders and order lines — among them
// rows the replicas have not absorbed yet.
func (o *churnOracle) body(rng *rand.Rand) oltp.TxnFunc {
	w := 1 + rng.Int63n(int64(o.db.Sizing.Warehouses))
	switch p := rng.Intn(100); {
	case p < 4:
		return o.db.Delivery(rng, w)
	case p < 52:
		return o.db.NewOrder(rng, w)
	default:
		return o.db.Payment(rng, w)
	}
}

func (o *churnOracle) run(body oltp.TxnFunc) {
	if _, err := o.core.OLTPE.Manager().RunWithRetry(1<<20, body); err != nil {
		o.t.Errorf("transaction failed: %v", err)
	}
}

// churn commits transactions on two goroutines until the returned stop is
// called; stop returns once both have finished their last commit.
func (o *churnOracle) churn(seed int64) (stop func()) {
	return churn(seed*31, func(rng *rand.Rand) { o.run(o.body(rng)) })
}

// churn runs body in a loop on two goroutines, each with its own source of
// randomness, until the returned stop is called; stop returns once both
// have finished their last call.
func churn(seed int64, body func(rng *rand.Rand)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := int64(0); g < 2; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				body(rng)
			}
		}(rand.New(rand.NewSource(seed + g)))
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// check recounts every table one row at a time — call it with no commit,
// switch or ETL in flight — and holds the helper to the recount:
//
//   - inserted is Rows − watermark, and the table's rows are Rows;
//   - updated is the update bits below the watermark, tested one by one;
//   - every row below the watermark that differs from the replica has its
//     bit set, so no differing tuple goes uncounted;
//   - a table no transaction ever updated in place carries no bit at all.
//
// It returns the system-wide fresh and total row counts.
func (o *churnOracle) check(step string) (fresh, rows int64) {
	o.t.Helper()
	for _, h := range o.tables {
		tab := h.Table()
		name := tab.Schema().Name
		bits := tab.DirtyOLAP()
		wm, n := h.Replica.Rows(), tab.Rows()
		if wm > n {
			o.t.Fatalf("%s: %s: replica watermark %d above the table's %d rows", step, name, wm, n)
		}
		var updated, differing int64
		for r := int64(0); r < wm; r++ {
			set := bits.Test(int(r))
			if set {
				updated++
			}
			if !h.Replica.EqualRow(tab.Active(), r) {
				differing++
				if !set {
					o.t.Errorf("%s: %s row %d differs from the replica but is not counted as updated", step, name, r)
				}
			}
		}
		st := h.Fresh()
		want := columnar.FreshStats{Rows: n, UpdatedRows: updated, InsertedRows: n - wm}
		if st != want {
			o.t.Errorf("%s: %s: Fresh() = %+v, recount %+v (%d rows differ from the replica)", step, name, st, want, differing)
		}
		if bits.CountBelow(int(n)) > bits.CountBelow(int(wm)) {
			o.sawBitAboveWatermark = true
		}
		if tab.UpdateCount() == 0 && bits.Count() != 0 {
			o.t.Errorf("%s: %s was never updated in place but carries %d update bits", step, name, bits.Count())
		}
		tf := o.core.X.TableFreshness(h)
		if tf.QueryFreshRows != want.FreshRows() || tf.QueryUpdatedRows != updated ||
			tf.Nft != want.FreshRows()*tab.Schema().RowBytes() || tf.Rate != rde.FreshRate(want.FreshRows(), n) {
			o.t.Errorf("%s: %s: TableFreshness = %+v, recount %+v", step, name, tf, want)
		}
		fresh += want.FreshRows()
		rows += n
	}
	f := o.core.X.MeasureFreshness(o.tables, ch.TOrderLine, 3)
	if f.Rate != rde.FreshRate(fresh, rows) {
		o.t.Errorf("%s: system rate %v, recount %d fresh of %d rows", step, f.Rate, fresh, rows)
	}
	if m := o.sys.Metrics(); m.FreshRows != fresh || m.TotalRows != rows || m.FreshnessRate != f.Rate {
		o.t.Errorf("%s: Metrics report %d fresh of %d rows at rate %v, recount %d of %d at %v",
			step, m.FreshRows, m.TotalRows, m.FreshnessRate, fresh, rows, f.Rate)
	}
	if rate, _ := o.sys.Freshness(); rate != f.Rate {
		o.t.Errorf("%s: System.Freshness rate %v, MeasureFreshness %v", step, rate, f.Rate)
	}
	return fresh, rows
}

// insertThenUpdate commits a NewOrder and then, in a second transaction,
// stamps a carrier on the order it inserted — a row the replica has never
// seen, updated before its first ETL. It returns the order's row.
func (o *churnOracle) insertThenUpdate(rng *rand.Rand) int64 {
	o.run(o.db.NewOrder(rng, 1))
	row := o.db.Orders.Table().Rows() - 1
	o.run(func(t *txn.Txn) error { return t.Write(o.db.Orders.Ref, row, ch.OCarrierID, 7) })
	return row
}

// TestFreshnessOracleUnderChurn drives random rounds of transaction
// batches, SwitchAndSync and — on a random subset — ETL, with transactions
// committing while the exchange runs, and recounts after every step.
func TestFreshnessOracleUnderChurn(t *testing.T) {
	o := newChurnOracle(t)
	x := o.core.X
	rng := rand.New(rand.NewSource(3))
	orders := o.db.Orders
	history := o.db.History.Table()
	historyRows := history.Rows()
	etls := 0

	for round := 0; round < 6; round++ {
		for i := 10 + rng.Intn(20); i > 0; i-- {
			o.run(o.body(rng))
		}
		o.check("after a batch")

		// A row inserted then updated before its first ETL is one fresh
		// row, not two: its bit sits above the watermark, where the count
		// must not look.
		before := orders.Fresh()
		row := o.insertThenUpdate(rng)
		if row < orders.Replica.Rows() || !orders.Table().DirtyOLAP().Test(int(row)) {
			t.Fatalf("order row %d (watermark %d) should carry an update bit above the watermark", row, orders.Replica.Rows())
		}
		if after := orders.Fresh(); after.UpdatedRows != before.UpdatedRows || after.FreshRows() != before.FreshRows()+1 {
			t.Fatalf("insert-then-update moved orders from %+v to %+v, want one more fresh row", before, after)
		}
		o.check("after insert-then-update")

		// The exchange runs against committing transactions.
		stop := o.churn(int64(round))
		set := x.SwitchAndSync(o.tables)
		// Re-update a row the replica holds, after the switch: if this
		// round ETLs, the row must stay fresh — the copy is of the older
		// snapshot value.
		o.run(o.db.Payment(rng, 1))
		wRow, _ := o.db.Warehouse.Index.Get(ch.WarehouseKey(1))
		// And an order inserted and updated after the switch: it postdates
		// the snapshot, so an ETL of this set leaves its bit alone.
		late := o.insertThenUpdate(rng)
		etl := rng.Intn(2) == 0
		if etl {
			x.ETL(set)
			etls++
		}
		stop()
		step := "after a switch under churn"
		if etl {
			step = "after a switch and an ETL under churn"
			if !o.db.Warehouse.Table().DirtyOLAP().Test(int(wRow)) {
				t.Fatalf("%s: warehouse row %d was re-updated after the switch but lost its bit", step, wRow)
			}
			if late < orders.Replica.Rows() || !orders.Table().DirtyOLAP().Test(int(late)) {
				t.Fatalf("%s: order row %d postdates the snapshot (watermark %d) but lost its bit", step, late, orders.Replica.Rows())
			}
		}
		o.check(step)

		switch round {
		case 1, 5:
			// At quiescence a switch and a full ETL leave nothing fresh:
			// the count and the recount agree exactly, on zero.
			x.ETL(x.SwitchAndSync(o.tables))
			if fresh, rows := o.check("after a quiesced ETL"); fresh != 0 {
				t.Fatalf("%d of %d rows fresh after a quiesced ETL", fresh, rows)
			}
			if f := x.MeasureFreshness(o.tables, ch.TOrderLine, 3); f.Rate != 1 || f.Nft != 0 || f.Nfq != 0 {
				t.Fatalf("freshness after a quiesced ETL = %+v, want rate 1 and nothing to copy", f)
			}
			for _, h := range o.tables {
				if n := h.Table().DirtyOLAP().Count(); n != 0 {
					t.Fatalf("%s keeps %d update bits after a quiesced ETL", h.Table().Schema().Name, n)
				}
			}
		case 3:
			o.checkpointMidChurn()
		}
	}
	if !o.sawBitAboveWatermark {
		t.Fatal("no check met an update bit above a watermark: the prefix limit went untested")
	}
	if history.UpdateCount() != 0 || history.Rows() == historyRows {
		t.Fatalf("history should be an insert-only table that grew (updates %d, rows %d -> %d): the no-bit-on-append check went untested",
			history.UpdateCount(), historyRows, history.Rows())
	}
	if etls == 0 {
		t.Fatal("no round ran a concurrent ETL")
	}
}

// checkpointMidChurn takes a checkpoint while transactions commit, then
// recovers the durable image: the recovered system reports, table by
// table, the freshness of the live one.
func (o *churnOracle) checkpointMidChurn() {
	o.t.Helper()
	stop := o.churn(99)
	_, err := o.sys.CheckpointDB(o.fs, oracleDir)
	stop()
	if err != nil {
		o.t.Fatal(err)
	}
	o.check("after a checkpoint under churn")
	rec, info, err := elastichtap.OpenFromDir(o.fs.Crash(false), oracleDir)
	if err != nil {
		o.t.Fatal(err)
	}
	defer rec.Close()
	if want := o.core.OLTPE.Manager().Commits(); info.Commits != want {
		o.t.Fatalf("recovered %d commits, live system has %d", info.Commits, want)
	}
	for _, h := range o.tables {
		name := h.Table().Schema().Name
		rh := rec.Core().OLTPE.Table(name)
		if got, want := rh.Fresh(), h.Fresh(); got != want {
			o.t.Errorf("recovered %s: Fresh() = %+v, live %+v", name, got, want)
		}
		if got, want := rec.Core().X.TableFreshness(rh), o.core.X.TableFreshness(h); !reflect.DeepEqual(got, want) {
			o.t.Errorf("recovered %s: TableFreshness = %+v, live %+v", name, got, want)
		}
	}
	liveRate, liveBytes := o.sys.Freshness()
	if rate, bytes := rec.Freshness(); rate != liveRate || bytes != liveBytes {
		o.t.Errorf("recovered system freshness (%v, %d), live (%v, %d)", rate, bytes, liveRate, liveBytes)
	}
	// The first delta-ETL on each side copies the same bytes.
	q := func(s *elastichtap.System) int64 {
		rep, err := s.QueryInStateContext(context.Background(), elastichtap.Q6(s.DB()), elastichtap.S2)
		if err != nil {
			o.t.Fatal(err)
		}
		return rep.ETLBytes
	}
	if got, want := q(rec), q(o.sys); got != want {
		o.t.Errorf("first ETL after recovery copied %d bytes, the live system's %d", got, want)
	}
}
