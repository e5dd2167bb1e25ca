package ch

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

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
// with generated data; recovery fills it from a checkpoint instead and
// then calls RebuildIndexes.
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

// Load generates and loads a deterministic CH-benCHmark database into the
// engine. Loaded rows carry commit timestamp 0 (visible to every
// snapshot); primary-key indexes are populated as rows land.
func Load(e *oltp.Engine, s Sizing, seed int64) *DB {
	rng := rand.New(rand.NewSource(seed))
	db := Attach(e, s)
	db.loadDimensions(rng)
	db.loadStockItems(rng)
	db.loadCustomers(rng)
	db.loadOrders(rng)
	return db
}

// RebuildIndexes repopulates every primary-key index from table contents
// — the recovery path after checkpoint restore and WAL replay, where rows
// land without going through the loader or the transaction bodies that
// normally maintain the indexes. The indexes share nothing, so each is
// built on a goroutine of its own.
func (db *DB) RebuildIndexes() {
	type keyed struct {
		h   *oltp.TableHandle
		key func(read func(col int) int64) uint64
	}
	var wg sync.WaitGroup
	for _, k := range []keyed{
		{db.Warehouse, func(r func(int) int64) uint64 { return WarehouseKey(r(WID)) }},
		{db.District, func(r func(int) int64) uint64 { return DistrictKey(r(DWID), r(DID)) }},
		{db.Customer, func(r func(int) int64) uint64 { return CustomerKey(r(CWID), r(CDID), r(CID)) }},
		{db.Orders, func(r func(int) int64) uint64 { return OrderKey(r(OWID), r(ODID), r(OID)) }},
		{db.Item, func(r func(int) int64) uint64 { return ItemKey(r(IID)) }},
		{db.Stock, func(r func(int) int64) uint64 { return StockKey(r(SWID), r(SIID)) }},
		{db.Supplier, func(r func(int) int64) uint64 { return uint64(r(SuSuppkey)) }},
		{db.Nation, func(r func(int) int64) uint64 { return uint64(r(NNationkey)) }},
		{db.Region, func(r func(int) int64) uint64 { return uint64(r(RRegionkey)) }},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := k.h.Table()
			rows := t.Rows()
			for row := int64(0); row < rows; row++ {
				key := k.key(func(col int) int64 { return t.ReadActive(row, col) })
				k.h.Index.Put(key, uint64(row))
			}
		}()
	}
	wg.Wait()
}

func (db *DB) loadDimensions(rng *rand.Rand) {
	s := db.Sizing
	wt := db.Warehouse.Table()
	var wrows [][]int64
	for w := 1; w <= s.Warehouses; w++ {
		wrows = append(wrows, wt.EncodeRow(
			w, fmt.Sprintf("WH-%03d", w), city(rng), state(rng),
			rng.Float64()*0.2, 300000.0,
		))
	}
	base := wt.AppendRows(wrows, 0)
	for i := range wrows {
		db.Warehouse.Index.Put(WarehouseKey(int64(i+1)), uint64(base+int64(i)))
	}

	dt := db.District.Table()
	var drows [][]int64
	var dkeys []uint64
	for w := 1; w <= s.Warehouses; w++ {
		for d := 1; d <= s.DistrictsPerWH; d++ {
			drows = append(drows, dt.EncodeRow(
				d, w, fmt.Sprintf("DIST-%d-%d", w, d), city(rng),
				rng.Float64()*0.2, 30000.0, int64(s.OrdersPerDistrict+1),
			))
			dkeys = append(dkeys, DistrictKey(int64(w), int64(d)))
		}
	}
	base = dt.AppendRows(drows, 0)
	for i, k := range dkeys {
		db.District.Index.Put(k, uint64(base+int64(i)))
	}

	rt := db.Region.Table()
	var rrows [][]int64
	for i, n := range regionNames {
		rrows = append(rrows, rt.EncodeRow(i, n))
	}
	base = rt.AppendRows(rrows, 0)
	for i := range rrows {
		db.Region.Index.Put(uint64(i), uint64(base+int64(i)))
	}

	nt := db.Nation.Table()
	var nrows [][]int64
	for i, n := range nationNames {
		nrows = append(nrows, nt.EncodeRow(i, n, i%len(regionNames)))
	}
	base = nt.AppendRows(nrows, 0)
	for i := range nrows {
		db.Nation.Index.Put(uint64(i), uint64(base+int64(i)))
	}

	st := db.Supplier.Table()
	var srows [][]int64
	for i := 0; i < 100; i++ {
		srows = append(srows, st.EncodeRow(
			i, fmt.Sprintf("Supplier#%09d", i), i%len(nationNames), rng.Float64()*10000,
		))
	}
	base = st.AppendRows(srows, 0)
	for i := range srows {
		db.Supplier.Index.Put(uint64(i), uint64(base+int64(i)))
	}
}

func (db *DB) loadStockItems(rng *rand.Rand) {
	s := db.Sizing
	it := db.Item.Table()
	var irows [][]int64
	for i := 1; i <= s.Items; i++ {
		irows = append(irows, it.EncodeRow(
			i, rng.Int63n(10000), fmt.Sprintf("item-%06d", i),
			1+rng.Float64()*99, itemData(rng),
		))
	}
	base := it.AppendRows(irows, 0)
	for i := range irows {
		db.Item.Index.Put(ItemKey(int64(i+1)), uint64(base+int64(i)))
	}

	st := db.Stock.Table()
	const batch = 1 << 14
	var rows [][]int64
	var keys []uint64
	flush := func() {
		if len(rows) == 0 {
			return
		}
		b := st.AppendRows(rows, 0)
		for i, k := range keys {
			db.Stock.Index.Put(k, uint64(b+int64(i)))
		}
		rows, keys = rows[:0], keys[:0]
	}
	for w := 1; w <= s.Warehouses; w++ {
		for i := 1; i <= s.Items; i++ {
			rows = append(rows, st.EncodeRow(
				i, w, 10+rng.Int63n(91), 0.0, int64(0), int64(0),
				distInfo(rng), itemData(rng), int64((w*i)%100),
			))
			keys = append(keys, StockKey(int64(w), int64(i)))
			if len(rows) >= batch {
				flush()
			}
		}
	}
	flush()
}

func (db *DB) loadCustomers(rng *rand.Rand) {
	s := db.Sizing
	ct := db.Customer.Table()
	const batch = 1 << 14
	var rows [][]int64
	var keys []uint64
	flush := func() {
		if len(rows) == 0 {
			return
		}
		b := ct.AppendRows(rows, 0)
		for i, k := range keys {
			db.Customer.Index.Put(k, uint64(b+int64(i)))
		}
		rows, keys = rows[:0], keys[:0]
	}
	for w := 1; w <= s.Warehouses; w++ {
		for d := 1; d <= s.DistrictsPerWH; d++ {
			for c := 1; c <= s.CustomersPerDistrict; c++ {
				credit := "GC"
				if rng.Intn(10) == 0 {
					credit = "BC"
				}
				rows = append(rows, ct.EncodeRow(
					c, d, w, firstName(rng), lastName(rng, c), credit,
					rng.Float64()*0.5, -10.0, 10.0, int64(1), LoadDay-rng.Int63n(1000),
					int64(((w*13+d*7+c)*17)%25),
				))
				keys = append(keys, CustomerKey(int64(w), int64(d), int64(c)))
				if len(rows) >= batch {
					flush()
				}
			}
		}
	}
	flush()
}

func (db *DB) loadOrders(rng *rand.Rand) {
	s := db.Sizing
	ot := db.Orders.Table()
	olt := db.OrderLine.Table()
	const batch = 1 << 12
	var orows, olrows [][]int64
	var okeys []uint64
	flushOrders := func() {
		if len(orows) == 0 {
			return
		}
		b := ot.AppendRows(orows, 0)
		for i, k := range okeys {
			db.Orders.Index.Put(k, uint64(b+int64(i)))
		}
		orows, okeys = orows[:0], okeys[:0]
	}
	flushLines := func() {
		if len(olrows) == 0 {
			return
		}
		olt.AppendRows(olrows, 0)
		olrows = olrows[:0]
	}
	for w := 1; w <= s.Warehouses; w++ {
		for d := 1; d <= s.DistrictsPerWH; d++ {
			for o := 1; o <= s.OrdersPerDistrict; o++ {
				c := 1 + rng.Intn(s.CustomersPerDistrict)
				entry := LoadDay - rng.Int63n(365)
				carrier := int64(1 + rng.Intn(10))
				orows = append(orows, ot.EncodeRow(
					o, d, w, c, entry, carrier, int64(s.OrderLinesPerOrder), int64(1),
				))
				okeys = append(okeys, OrderKey(int64(w), int64(d), int64(o)))
				for n := 1; n <= s.OrderLinesPerOrder; n++ {
					item := 1 + rng.Intn(s.Items)
					qty := int64(1 + rng.Intn(10))
					price := 1 + rng.Float64()*99
					olrows = append(olrows, olt.EncodeRow(
						o, d, w, n, item, w, entry+rng.Int63n(30),
						qty, float64(qty)*price, distInfo(rng),
					))
				}
				if len(orows) >= batch {
					flushOrders()
				}
				if len(olrows) >= batch {
					flushLines()
				}
			}
		}
	}
	flushOrders()
	flushLines()
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
