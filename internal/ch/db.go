package ch

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
	"elastichtap/query"
)

// LoadDay is the logical date (epoch days) stamped on generated rows; the
// database's clock advances from here as transactions run.
const LoadDay = 18262 // 2020-01-01

// DB is a loaded CH-benCHmark database bound to an OLTP engine.
type DB struct {
	Engine *oltp.Engine
	Sizing Sizing

	Warehouse *oltp.TableHandle
	District  *oltp.TableHandle
	Customer  *oltp.TableHandle
	History   *oltp.TableHandle
	NewOrderT *oltp.TableHandle
	Orders    *oltp.TableHandle
	OrderLine *oltp.TableHandle
	Item      *oltp.TableHandle
	Stock     *oltp.TableHandle
	Supplier  *oltp.TableHandle
	Nation    *oltp.TableHandle
	Region    *oltp.TableHandle

	day atomic.Int64
	// distTxn is distTxnCode's result plus one; 0 = not yet resolved.
	distTxn atomic.Int64

	// prepared caches the bound form of the parameterized evaluation
	// plans (see PreparedPlan), one Bind per query per database.
	prepMu   sync.Mutex
	prepared map[string]*query.Compiled
}

// Day returns the database's current logical date.
func (db *DB) Day() int64 { return db.day.Load() }

// SetDay restores the logical date (recovery only).
func (db *DB) SetDay(d int64) { db.day.Store(d) }

// Tables returns every table handle in creation order.
func (db *DB) Tables() []*oltp.TableHandle { return db.Engine.Tables() }

// Handle returns a table handle by name, or nil.
func (db *DB) Handle(name string) *oltp.TableHandle { return db.Engine.Table(name) }

var nationNames = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
	"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
	"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
	"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
}

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// Attach creates the CH-benCHmark tables (empty, with their index
// plumbing) in the engine and returns the database shell. Load fills it
// with generated data, recovery from a checkpoint and the log; both then
// key the indexes with RebuildIndexes.
func Attach(e *oltp.Engine, s Sizing) *DB {
	db := &DB{Engine: e, Sizing: s}
	db.day.Store(LoadDay)

	schemas := Schemas()
	db.Warehouse = e.CreateTable(schemas[TWarehouse], int64(s.Warehouses), true)
	db.District = e.CreateTable(schemas[TDistrict], int64(s.Warehouses*s.DistrictsPerWH), true)
	db.Customer = e.CreateTable(schemas[TCustomer], s.Customers(), true)
	db.History = e.CreateTable(schemas[THistory], s.Customers(), false)
	db.NewOrderT = e.CreateTable(schemas[TNewOrder], s.Orders(), false)
	db.Orders = e.CreateTable(schemas[TOrders], s.Orders(), true)
	db.OrderLine = e.CreateTable(schemas[TOrderLine], s.OrderLines(), false)
	db.Item = e.CreateTable(schemas[TItem], int64(s.Items), true)
	db.Stock = e.CreateTable(schemas[TStock], s.StockRows(), true)
	db.Supplier = e.CreateTable(schemas[TSupplier], 100, true)
	db.Nation = e.CreateTable(schemas[TNation], int64(len(nationNames)), true)
	db.Region = e.CreateTable(schemas[TRegion], int64(len(regionNames)), true)
	return db
}

// Load generates a deterministic CH-benCHmark database into the engine.
// The generators only append rows, which carry commit timestamp 0
// (visible to every snapshot); once every table holds its rows,
// RebuildIndexes keys the primary indexes, as it does for recovery.
func Load(e *oltp.Engine, s Sizing, seed int64) *DB {
	rng := rand.New(rand.NewSource(seed))
	db := Attach(e, s)
	db.loadDimensions(rng)
	db.loadStockItems(rng)
	db.loadCustomers(rng)
	db.loadOrders(rng)
	db.RebuildIndexes()
	return db
}

// RebuildIndexes keys every primary-key index from its table's rows, in
// row order. Load ends with it, and recovery calls it after checkpoint
// restore and WAL replay: in both, rows land without going through the
// transaction bodies that maintain the indexes as they run. Each key
// function reads the row's key columns from the active instance. The
// indexes share nothing, so each is built on a goroutine of its own.
func (db *DB) RebuildIndexes() {
	var wg sync.WaitGroup
	for _, k := range []struct {
		h   *oltp.TableHandle
		key func(t *columnar.Table, row int64) uint64
	}{
		{db.Warehouse, func(t *columnar.Table, r int64) uint64 { return WarehouseKey(t.ReadActive(r, WID)) }},
		{db.District, func(t *columnar.Table, r int64) uint64 {
			return DistrictKey(t.ReadActive(r, DWID), t.ReadActive(r, DID))
		}},
		{db.Customer, func(t *columnar.Table, r int64) uint64 {
			return CustomerKey(t.ReadActive(r, CWID), t.ReadActive(r, CDID), t.ReadActive(r, CID))
		}},
		{db.Orders, func(t *columnar.Table, r int64) uint64 {
			return OrderKey(t.ReadActive(r, OWID), t.ReadActive(r, ODID), t.ReadActive(r, OID))
		}},
		{db.Item, func(t *columnar.Table, r int64) uint64 { return ItemKey(t.ReadActive(r, IID)) }},
		{db.Stock, func(t *columnar.Table, r int64) uint64 {
			return StockKey(t.ReadActive(r, SWID), t.ReadActive(r, SIID))
		}},
		{db.Supplier, func(t *columnar.Table, r int64) uint64 { return uint64(t.ReadActive(r, SuSuppkey)) }},
		{db.Nation, func(t *columnar.Table, r int64) uint64 { return uint64(t.ReadActive(r, NNationkey)) }},
		{db.Region, func(t *columnar.Table, r int64) uint64 { return uint64(t.ReadActive(r, RRegionkey)) }},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := k.h.Table()
			for row := range t.Rows() {
				k.h.Index.Put(k.key(t, row), uint64(row))
			}
		}()
	}
	wg.Wait()
}

// CheckIndexes reports the first way a primary-key index disagrees with
// its table: an entry count that is not the row count, or a row whose key
// does not resolve to that row. It derives every key from the row's
// columns with the schema's key functions, apart from RebuildIndexes'
// key table, so a key that drifts from the schema fails it on a loaded
// and on a recovered database alike. The caller keeps transactions out.
func (db *DB) CheckIndexes() error {
	for _, c := range []struct {
		h    *oltp.TableHandle
		cols []int
		key  func(v []int64) uint64
	}{
		{db.Warehouse, []int{WID}, func(v []int64) uint64 { return WarehouseKey(v[0]) }},
		{db.District, []int{DWID, DID}, func(v []int64) uint64 { return DistrictKey(v[0], v[1]) }},
		{db.Customer, []int{CWID, CDID, CID}, func(v []int64) uint64 { return CustomerKey(v[0], v[1], v[2]) }},
		{db.Orders, []int{OWID, ODID, OID}, func(v []int64) uint64 { return OrderKey(v[0], v[1], v[2]) }},
		{db.Item, []int{IID}, func(v []int64) uint64 { return ItemKey(v[0]) }},
		{db.Stock, []int{SWID, SIID}, func(v []int64) uint64 { return StockKey(v[0], v[1]) }},
		{db.Supplier, []int{SuSuppkey}, func(v []int64) uint64 { return uint64(v[0]) }},
		{db.Nation, []int{NNationkey}, func(v []int64) uint64 { return uint64(v[0]) }},
		{db.Region, []int{RRegionkey}, func(v []int64) uint64 { return uint64(v[0]) }},
	} {
		t := c.h.Table()
		if n := int64(c.h.Index.Len()); n != t.Rows() {
			return fmt.Errorf("ch: %s index holds %d keys for %d rows", t.Schema().Name, n, t.Rows())
		}
		v := make([]int64, len(c.cols))
		for row := range t.Rows() {
			for i, col := range c.cols {
				v[i] = t.ReadActive(row, col)
			}
			if got, ok := c.h.Index.Get(c.key(v)); !ok || got != uint64(row) {
				return fmt.Errorf("ch: %s row %d (key columns %v) resolves to row %d, found %v",
					t.Schema().Name, row, v, got, ok)
			}
		}
	}
	return nil
}

// loadBatch is the number of generated rows an appender holds encoded
// before it appends them.
const loadBatch = 1 << 12

// appender appends a table's generated rows, with commit timestamp 0.
type appender struct {
	t    *columnar.Table
	rows [][]int64
}

// add encodes one row, appending the batch once it is full.
func (a *appender) add(vals ...any) {
	a.rows = append(a.rows, a.t.EncodeRow(vals...))
	if len(a.rows) == loadBatch {
		a.flush()
	}
}

// flush appends the rows added since the last flush.
func (a *appender) flush() {
	a.t.AppendRows(a.rows, 0)
	a.rows = a.rows[:0]
}

func (db *DB) loadDimensions(rng *rand.Rand) {
	s := db.Sizing
	wh := &appender{t: db.Warehouse.Table()}
	for w := 1; w <= s.Warehouses; w++ {
		wh.add(
			w, fmt.Sprintf("WH-%03d", w), city(rng), state(rng),
			rng.Float64()*0.2, 300000.0,
		)
	}
	wh.flush()

	dist := &appender{t: db.District.Table()}
	for w := 1; w <= s.Warehouses; w++ {
		for d := 1; d <= s.DistrictsPerWH; d++ {
			dist.add(
				d, w, fmt.Sprintf("DIST-%d-%d", w, d), city(rng),
				rng.Float64()*0.2, 30000.0, int64(s.OrdersPerDistrict+1),
			)
		}
	}
	dist.flush()

	region := &appender{t: db.Region.Table()}
	for i, n := range regionNames {
		region.add(i, n)
	}
	region.flush()

	nation := &appender{t: db.Nation.Table()}
	for i, n := range nationNames {
		nation.add(i, n, i%len(regionNames))
	}
	nation.flush()

	supp := &appender{t: db.Supplier.Table()}
	for i := 0; i < 100; i++ {
		supp.add(
			i, fmt.Sprintf("Supplier#%09d", i), i%len(nationNames), rng.Float64()*10000,
		)
	}
	supp.flush()
}

func (db *DB) loadStockItems(rng *rand.Rand) {
	s := db.Sizing
	item := &appender{t: db.Item.Table()}
	for i := 1; i <= s.Items; i++ {
		item.add(
			i, rng.Int63n(10000), fmt.Sprintf("item-%06d", i),
			1+rng.Float64()*99, itemData(rng),
		)
	}
	item.flush()

	stock := &appender{t: db.Stock.Table()}
	for w := 1; w <= s.Warehouses; w++ {
		for i := 1; i <= s.Items; i++ {
			stock.add(
				i, w, 10+rng.Int63n(91), 0.0, int64(0), int64(0),
				distInfo(rng), itemData(rng), int64((w*i)%100),
			)
		}
	}
	stock.flush()
}

func (db *DB) loadCustomers(rng *rand.Rand) {
	s := db.Sizing
	cust := &appender{t: db.Customer.Table()}
	for w := 1; w <= s.Warehouses; w++ {
		for d := 1; d <= s.DistrictsPerWH; d++ {
			for c := 1; c <= s.CustomersPerDistrict; c++ {
				credit := "GC"
				if rng.Intn(10) == 0 {
					credit = "BC"
				}
				cust.add(
					c, d, w, firstName(rng), lastName(rng, c), credit,
					rng.Float64()*0.5, -10.0, 10.0, int64(1), LoadDay-rng.Int63n(1000),
					int64(((w*13+d*7+c)*17)%25),
				)
			}
		}
	}
	cust.flush()
}

func (db *DB) loadOrders(rng *rand.Rand) {
	s := db.Sizing
	orders := &appender{t: db.Orders.Table()}
	lines := &appender{t: db.OrderLine.Table()}
	for w := 1; w <= s.Warehouses; w++ {
		for d := 1; d <= s.DistrictsPerWH; d++ {
			for o := 1; o <= s.OrdersPerDistrict; o++ {
				c := 1 + rng.Intn(s.CustomersPerDistrict)
				entry := LoadDay - rng.Int63n(365)
				carrier := int64(1 + rng.Intn(10))
				orders.add(
					o, d, w, c, entry, carrier, int64(s.OrderLinesPerOrder), int64(1),
				)
				for n := 1; n <= s.OrderLinesPerOrder; n++ {
					item := 1 + rng.Intn(s.Items)
					qty := int64(1 + rng.Intn(10))
					price := 1 + rng.Float64()*99
					lines.add(
						o, d, w, n, item, w, entry+rng.Int63n(30),
						qty, float64(qty)*price, distInfo(rng),
					)
				}
			}
		}
	}
	orders.flush()
	lines.flush()
}

var cities = []string{"Lausanne", "Geneva", "Zurich", "Bern", "Basel", "Lugano", "Sion", "Chur"}
var states = []string{"VD", "GE", "ZH", "BE", "BS", "TI", "VS", "GR"}
var firstNames = []string{"Ada", "Grace", "Edsger", "Alan", "Barbara", "Donald", "Leslie", "Tony"}
var lastSyllables = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

func city(rng *rand.Rand) string  { return cities[rng.Intn(len(cities))] }
func state(rng *rand.Rand) string { return states[rng.Intn(len(states))] }

func firstName(rng *rand.Rand) string { return firstNames[rng.Intn(len(firstNames))] }

// lastName follows the TPC-C syllable construction over the customer id.
func lastName(rng *rand.Rand, c int) string {
	n := c % 1000
	return lastSyllables[n/100] + lastSyllables[(n/10)%10] + lastSyllables[n%10]
}

func itemData(rng *rand.Rand) string {
	if rng.Intn(10) == 0 {
		return "ORIGINAL"
	}
	return fmt.Sprintf("data-%04d", rng.Intn(500))
}

func distInfo(rng *rand.Rand) string { return fmt.Sprintf("dist-%03d", rng.Intn(100)) }
