package ch

import (
	"context"
	"math/rand"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
)

func loadTiny(t *testing.T) *DB {
	t.Helper()
	return Load(oltp.NewEngine(), TinySizing(), 1)
}

func TestLoadCounts(t *testing.T) {
	db := loadTiny(t)
	s := db.Sizing
	if got := db.Warehouse.Table().Rows(); got != int64(s.Warehouses) {
		t.Fatalf("warehouses = %d", got)
	}
	if got := db.District.Table().Rows(); got != int64(s.Warehouses*s.DistrictsPerWH) {
		t.Fatalf("districts = %d", got)
	}
	if got := db.Customer.Table().Rows(); got != s.Customers() {
		t.Fatalf("customers = %d", got)
	}
	if got := db.Orders.Table().Rows(); got != s.Orders() {
		t.Fatalf("orders = %d", got)
	}
	if got := db.OrderLine.Table().Rows(); got != s.OrderLines() {
		t.Fatalf("orderlines = %d", got)
	}
	if got := db.Stock.Table().Rows(); got != s.StockRows() {
		t.Fatalf("stock = %d", got)
	}
	if got := db.Item.Table().Rows(); got != int64(s.Items) {
		t.Fatalf("items = %d", got)
	}
}

func TestLoadDeterminism(t *testing.T) {
	a := Load(oltp.NewEngine(), TinySizing(), 7)
	b := Load(oltp.NewEngine(), TinySizing(), 7)
	ta, tb := a.OrderLine.Table(), b.OrderLine.Table()
	if ta.Rows() != tb.Rows() {
		t.Fatal("row counts differ")
	}
	for r := int64(0); r < ta.Rows(); r += 97 {
		for c := 0; c < len(ta.Schema().Columns); c++ {
			va, vb := ta.ReadActive(r, c), tb.ReadActive(r, c)
			if ta.Schema().Columns[c].Type == columnar.String {
				if ta.DecodeValue(c, va) != tb.DecodeValue(c, vb) {
					t.Fatalf("row %d col %d differs", r, c)
				}
				continue
			}
			if va != vb {
				t.Fatalf("row %d col %d differs: %d vs %d", r, c, va, vb)
			}
		}
	}
}

// TestIndexesResolveLoadedKeys: the load path (RebuildIndexes over the
// appended rows) keys every row of the nine indexed tables, each to its
// own row.
func TestIndexesResolveLoadedKeys(t *testing.T) {
	if err := loadTiny(t).CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

func TestNewOrderEffects(t *testing.T) {
	db := loadTiny(t)
	mgr := db.Engine.Manager()
	ordersBefore := db.Orders.Table().Rows()
	linesBefore := db.OrderLine.Table().Rows()

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		if _, err := mgr.RunWithRetry(10, db.NewOrder(rng, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Orders.Table().Rows() - ordersBefore; got != 20 {
		t.Fatalf("orders inserted = %d", got)
	}
	lines := db.OrderLine.Table().Rows() - linesBefore
	if lines < 20*5 || lines > 20*15 {
		t.Fatalf("order lines inserted = %d, want within [100,300]", lines)
	}
	// The district next-order-id advanced.
	row, _ := db.District.Index.Get(DistrictKey(1, 1))
	next := db.District.Table().ReadActive(int64(row), DNextOID)
	if next <= int64(db.Sizing.OrdersPerDistrict) {
		t.Fatalf("d_next_o_id = %d, never advanced", next)
	}
	// New orders are in the index.
	if _, ok := db.Orders.Index.Get(OrderKey(1, 1, int64(db.Sizing.OrdersPerDistrict)+1)); !ok {
		t.Fatal("inserted order missing from index")
	}
}

func TestPaymentEffects(t *testing.T) {
	db := loadTiny(t)
	mgr := db.Engine.Manager()
	wRow, _ := db.Warehouse.Index.Get(WarehouseKey(1))
	before := columnar.DecodeFloat(db.Warehouse.Table().ReadActive(int64(wRow), WYtd))
	histBefore := db.History.Table().Rows()

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		if _, err := mgr.RunWithRetry(10, db.Payment(rng, 1)); err != nil {
			t.Fatal(err)
		}
	}
	after := columnar.DecodeFloat(db.Warehouse.Table().ReadActive(int64(wRow), WYtd))
	if after <= before {
		t.Fatalf("warehouse YTD did not grow: %v -> %v", before, after)
	}
	if db.History.Table().Rows() != histBefore+10 {
		t.Fatal("history rows missing")
	}
	// Payments mark updated rows for freshness accounting.
	if db.Warehouse.Table().DirtyOLAP().Count() == 0 {
		t.Fatal("payment updates left no dirty-OLAP bits")
	}
}

func TestMixWorkload(t *testing.T) {
	db := loadTiny(t)
	mix := NewMix(db, 50, 9)
	db.Engine.Workers().SetWorkload(mix)
	db.Engine.Workers().ExecuteBatch(60, 4)
	if got := db.Engine.Workers().Executed(); got != 60 {
		t.Fatalf("executed = %d", got)
	}
	if db.Engine.Manager().Commits() < 60 {
		t.Fatalf("commits = %d", db.Engine.Manager().Commits())
	}
}

func execOnActive(t *testing.T, db *DB, q olap.Query) olap.Result {
	t.Helper()
	e := olap.NewEngine(2)
	e.SetPlacement(topology.Placement{PerSocket: []int{0, 4}})
	tab := db.Handle(q.FactTable()).Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{
		{Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0},
	}}
	res, _, err := e.ExecuteContext(context.Background(), q, src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSizingForScale(t *testing.T) {
	s := SizingForScale(1)
	if got := s.OrderLines(); got < 5_800_000 || got > 6_100_000 {
		t.Fatalf("SF1 order lines = %d, want ~6M", got)
	}
	if s.Items != 100_000 {
		t.Fatalf("SF1 items = %d", s.Items)
	}
	small := SizingForScale(0.01)
	if small.Warehouses != 14 {
		t.Fatalf("SF0.01 warehouses = %d", small.Warehouses)
	}
	if small.OrderLines() < 50_000 || small.OrderLines() > 70_000 {
		t.Fatalf("SF0.01 order lines = %d", small.OrderLines())
	}
	if SizingForScale(0).OrderLines() <= 0 {
		t.Fatal("zero SF must clamp to positive sizing")
	}
	if SizingForScale(300).Warehouses != 300 {
		t.Fatal("SF300 warehouses")
	}
}

func TestQuerySet(t *testing.T) {
	db := loadTiny(t)
	qs := db.QuerySet()
	names := []string{"Q1", "Q6", "Q19", "Q3", "Q12", "Q18"}
	if len(qs) != len(names) {
		t.Fatalf("QuerySet len = %d, want %d", len(qs), len(names))
	}
	for i, q := range qs {
		if q.Name() != names[i] {
			t.Fatalf("query %d = %s, want %s", i, q.Name(), names[i])
		}
		if q.FactTable() != TOrderLine {
			t.Fatalf("query %s fact table = %s", q.Name(), q.FactTable())
		}
		// The builder-compiled members must have bound cleanly.
		if v, ok := q.(interface{ Err() error }); ok {
			if err := v.Err(); err != nil {
				t.Fatalf("query %s carries bind error: %v", q.Name(), err)
			}
		}
	}
}
