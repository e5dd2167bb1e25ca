package ch

import (
	"fmt"
	"math/bits"
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

// suppliers is the supplier table's row count at every scale.
const suppliers = 100

// Attach creates the CH-benCHmark tables (empty) in the engine and
// returns the database shell. Load fills it with generated data, recovery
// from a checkpoint and the log; both then build the primary-key indexes
// with RebuildIndexes.
func Attach(e *oltp.Engine, s Sizing) *DB {
	db := &DB{Engine: e, Sizing: s}
	db.day.Store(LoadDay)

	schemas := Schemas()
	db.Warehouse = e.CreateTable(schemas[TWarehouse], int64(s.Warehouses))
	db.District = e.CreateTable(schemas[TDistrict], int64(s.Warehouses*s.DistrictsPerWH))
	db.Customer = e.CreateTable(schemas[TCustomer], s.Customers())
	db.History = e.CreateTable(schemas[THistory], s.Customers())
	db.NewOrderT = e.CreateTable(schemas[TNewOrder], s.Orders())
	db.Orders = e.CreateTable(schemas[TOrders], s.Orders())
	db.OrderLine = e.CreateTable(schemas[TOrderLine], s.OrderLines())
	db.Item = e.CreateTable(schemas[TItem], int64(s.Items))
	db.Stock = e.CreateTable(schemas[TStock], s.StockRows())
	db.Supplier = e.CreateTable(schemas[TSupplier], suppliers)
	db.Nation = e.CreateTable(schemas[TNation], int64(len(nationNames)))
	db.Region = e.CreateTable(schemas[TRegion], int64(len(regionNames)))
	return db
}

// Load generates a deterministic CH-benCHmark database into the engine.
// The generators only append rows, which carry commit timestamp 0
// (visible to every snapshot). They set each row's typed words in an
// appender, whose column-major batch goes into the table through
// AppendColumns, the append every row takes. Once every table
// holds its rows, RebuildIndexes builds the primary indexes, as it does
// for recovery.
func Load(e *oltp.Engine, s Sizing, seed int64) *DB {
	rng := rand.New(rand.NewSource(seed))
	db := Attach(e, s)
	db.loadDimensions(rng)
	db.loadStockItems(rng)
	db.loadCustomers(rng)
	db.loadOrders(rng)
	if err := db.RebuildIndexes(); err != nil {
		panic(err) // the generators write every key where its index needs it
	}
	return db
}

// RebuildIndexes builds every primary-key index from its table's rows.
// Load ends with it, and recovery calls it after restore and replay, where
// rows land without the NewOrder bodies that maintain the orders index.
// A key is oltp.Key(warehouse, district, id). The orders index appends
// each district's ids in row order; every other keyed table must hold its
// whole domain in key order, checked row by row, and resolves a key by
// arithmetic. Each index is built on a goroutine of its own. Last, each
// district's next order id must follow its last order (TPC-C's
// consistency condition 2), or a later NewOrder would leave a gap. A row
// out of place, damage a restored image's checksums missed, is an error
// wrapping oltp.ErrMisplacedRow. The caller keeps transactions out.
func (db *DB) RebuildIndexes() error {
	s := db.Sizing
	wh, dist := oltp.Dim{Lo: 1, Span: int64(s.Warehouses)}, oltp.Dim{Lo: 1, Span: int64(s.DistrictsPerWH)}
	ids := func(lo, n int64) oltp.Dim { return oltp.Dim{Lo: lo, Span: n} }
	// A component the key lacks is always 0; a span of 0 appends ids.
	none, appendFrom1 := ids(0, 1), ids(1, 0)
	keyed := []struct {
		h    *oltp.TableHandle
		cols [3]int // the key's (warehouse, district, id) columns; -1 where it has none
		dims [3]oltp.Dim
	}{
		{db.Warehouse, [3]int{WID, -1, -1}, [3]oltp.Dim{wh, none, none}},
		{db.District, [3]int{DWID, DID, -1}, [3]oltp.Dim{wh, dist, none}},
		{db.Customer, [3]int{CWID, CDID, CID}, [3]oltp.Dim{wh, dist, ids(1, int64(s.CustomersPerDistrict))}},
		{db.Orders, [3]int{OWID, ODID, OID}, [3]oltp.Dim{wh, dist, appendFrom1}},
		{db.Item, [3]int{-1, -1, IID}, [3]oltp.Dim{none, none, ids(1, int64(s.Items))}},
		{db.Stock, [3]int{SWID, -1, SIID}, [3]oltp.Dim{wh, none, ids(1, int64(s.Items))}},
		{db.Supplier, [3]int{-1, -1, SuSuppkey}, [3]oltp.Dim{none, none, ids(0, suppliers)}},
		{db.Nation, [3]int{-1, -1, NNationkey}, [3]oltp.Dim{none, none, ids(0, int64(len(nationNames)))}},
		{db.Region, [3]int{-1, -1, RRegionkey}, [3]oltp.Dim{none, none, ids(0, int64(len(regionNames)))}},
	}
	errs := make([]error, len(keyed))
	var wg sync.WaitGroup
	for i, k := range keyed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := k.h.Table()
			idx, err := oltp.NewKeyIndex(k.dims, t.Rows(), func(row int64) (key [3]int64) {
				for j, c := range k.cols {
					if c >= 0 {
						key[j] = t.ReadActive(row, c)
					}
				}
				return key
			})
			if err != nil {
				errs[i] = fmt.Errorf("ch: %s index: %w", t.Schema().Name, err)
				return
			}
			k.h.Index = idx
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	t := db.District.Table()
	for row := range t.Rows() {
		w, d, next := t.ReadActive(row, DWID), t.ReadActive(row, DID), t.ReadActive(row, DNextOID)
		if next < 1 || next >= 1<<40 {
			return fmt.Errorf("ch: district (%d, %d)'s next order id %d is out of range", w, d, next)
		}
		_, last := db.Orders.Index.Get(OrderKey(w, d, next-1))
		if _, past := db.Orders.Index.Get(OrderKey(w, d, next)); next > 1 && !last || past {
			return fmt.Errorf("ch: district (%d, %d)'s next order id %d does not follow its last order", w, d, next)
		}
	}
	return nil
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

// loadBatch is the number of generated rows an appender holds before it
// appends them.
const loadBatch = 1 << 12

// appender appends a table's generated rows, with commit timestamp 0. A
// generator sets every column of a row with the setter of the column's
// kind — i, f and s, or m for a memoized string — and then ends the row.
// end scatters the row into a column-major batch, and flush hands the
// batch to AppendColumns, which copies each column into the table's chunk
// runs. A setter of the wrong kind, or a row ended with a column unset,
// panics with the table's and the column's names.
type appender struct {
	t     *columnar.Table
	row   [64]int64 // the row being set; a table has at most 64 columns
	set   uint64    // columns of row set so far
	full  uint64
	kinds [64]columnar.Type
	memos []memo    // by column; codes is nil for a column m does not set
	cols  [][]int64 // cols[c][r]: column c of batch row r < n
	n     int
}

// memo holds the codes of one column's generated strings: name(k) is the
// k-th, and codes[k] is its code plus one, 0 until k is first drawn.
type memo struct {
	codes []int64
	name  func(int) string
}

func newAppender(h *oltp.TableHandle) *appender {
	t := h.Table()
	defs := t.Schema().Columns
	a := &appender{
		t:     t,
		full:  1<<len(defs) - 1,
		memos: make([]memo, len(defs)),
		cols:  make([][]int64, len(defs)),
	}
	for c, def := range defs {
		a.kinds[c] = def.Type
		a.cols[c] = make([]int64, loadBatch)
	}
	return a
}

// cellError is an appender's panic value: column col of t set with a
// value of kind got, or, with unset, ended without a value.
type cellError struct {
	t     *columnar.Table
	col   int
	got   columnar.Type
	unset bool
}

func (e cellError) Error() string {
	def := e.t.Schema().Columns[e.col]
	if e.unset {
		return fmt.Sprintf("ch: row of %q ended without column %s", e.t.Schema().Name, def.Name)
	}
	return fmt.Sprintf("ch: %s value not assignable to column %s %s of %q",
		e.got, def.Name, def.Type, e.t.Schema().Name)
}

// check panics unless column c is of kind k.
func (a *appender) check(c int, k columnar.Type) {
	if a.kinds[c] != k {
		panic(cellError{t: a.t, col: c, got: k})
	}
}

// i sets Int64 column c of the current row.
func (a *appender) i(c int, v int64) {
	a.check(c, columnar.Int64)
	a.row[c] = v
	a.set |= 1 << c
}

// f sets Float64 column c of the current row.
func (a *appender) f(c int, v float64) {
	a.check(c, columnar.Float64)
	a.row[c] = columnar.EncodeFloat(v)
	a.set |= 1 << c
}

// s sets String column c of the current row to v's dictionary code.
func (a *appender) s(c int, v string) {
	a.row[c] = a.code(c, v)
	a.set |= 1 << c
}

// code is s's kind check and dictionary lookup, out of line so that s
// inlines.
func (a *appender) code(c int, v string) int64 {
	a.check(c, columnar.String)
	return a.t.Dict(c).Code(v)
}

// memo lets m set String column c to one of n generated strings, the k-th
// of which is name(k).
func (a *appender) memo(c, n int, name func(int) string) {
	a.check(c, columnar.String)
	a.memos[c] = memo{codes: make([]int64, n), name: name}
}

// m sets String column c of the current row to its memo's k-th string.
// The row holds k until flush resolves it.
func (a *appender) m(c, k int) {
	a.row[c] = int64(k)
	a.set |= 1 << c
}

// end closes the current row, appending the batch once it is full.
func (a *appender) end() {
	if a.set != a.full {
		panic(cellError{t: a.t, col: bits.TrailingZeros64(^a.set & a.full), unset: true})
	}
	for c, col := range a.cols {
		col[a.n] = a.row[c]
	}
	a.set = 0
	a.n++
	if a.n == loadBatch {
		a.flush()
	}
}

// flush appends the rows ended since the last flush. It first turns each
// memoized column's string indexes into codes, in row order: only the
// first draw of an index formats its string and looks it up, so the
// dictionary assigns codes in first-drawn order, as s would. AppendColumns
// then copies each run from the batch at the run's offset.
func (a *appender) flush() {
	for c, m := range a.memos {
		if m.codes == nil {
			continue
		}
		col := a.cols[c][:a.n]
		for r, k := range col {
			code := m.codes[k]
			if code == 0 {
				code = a.t.Dict(c).Code(m.name(int(k))) + 1
				m.codes[k] = code
			}
			col[r] = code - 1
		}
	}
	// fill never fails, so neither does AppendColumns.
	_, _ = a.t.AppendColumns(int64(a.n), 0, func(c int, off int64, dst []int64) error {
		copy(dst, a.cols[c][off:])
		return nil
	})
	a.n = 0
}

func (db *DB) loadDimensions(rng *rand.Rand) {
	s := db.Sizing
	wh := newAppender(db.Warehouse)
	for w := 1; w <= s.Warehouses; w++ {
		wh.i(WID, int64(w))
		wh.s(WName, fmt.Sprintf("WH-%03d", w))
		wh.s(WCity, city(rng))
		wh.s(WState, state(rng))
		wh.f(WTax, rng.Float64()*0.2)
		wh.f(WYtd, 300000)
		wh.end()
	}
	wh.flush()

	dist := newAppender(db.District)
	for w := 1; w <= s.Warehouses; w++ {
		for d := 1; d <= s.DistrictsPerWH; d++ {
			dist.i(DID, int64(d))
			dist.i(DWID, int64(w))
			dist.s(DName, fmt.Sprintf("DIST-%d-%d", w, d))
			dist.s(DCity, city(rng))
			dist.f(DTax, rng.Float64()*0.2)
			dist.f(DYtd, 30000)
			dist.i(DNextOID, int64(s.OrdersPerDistrict+1))
			dist.end()
		}
	}
	dist.flush()

	region := newAppender(db.Region)
	for i, n := range regionNames {
		region.i(RRegionkey, int64(i))
		region.s(RName, n)
		region.end()
	}
	region.flush()

	nation := newAppender(db.Nation)
	for i, n := range nationNames {
		nation.i(NNationkey, int64(i))
		nation.s(NName, n)
		nation.i(NRegionkey, int64(i%len(regionNames)))
		nation.end()
	}
	nation.flush()

	supp := newAppender(db.Supplier)
	for i := 0; i < suppliers; i++ {
		supp.i(SuSuppkey, int64(i))
		supp.s(SuName, fmt.Sprintf("Supplier#%09d", i))
		supp.i(SuNationkey, int64(i%len(nationNames)))
		supp.f(SuAcctbal, rng.Float64()*10000)
		supp.end()
	}
	supp.flush()
}

func (db *DB) loadStockItems(rng *rand.Rand) {
	s := db.Sizing
	item := newAppender(db.Item)
	item.memo(IData, itemDatas, itemDataName)
	for i := 1; i <= s.Items; i++ {
		item.i(IID, int64(i))
		item.i(IImID, rng.Int63n(10000))
		item.s(IName, fmt.Sprintf("item-%06d", i))
		item.f(IPrice, 1+rng.Float64()*99)
		item.m(IData, itemData(rng))
		item.end()
	}
	item.flush()

	stock := newAppender(db.Stock)
	stock.memo(SDist, distInfos, distInfoName)
	stock.memo(SData, itemDatas, itemDataName)
	for w := 1; w <= s.Warehouses; w++ {
		for i := 1; i <= s.Items; i++ {
			stock.i(SIID, int64(i))
			stock.i(SWID, int64(w))
			stock.i(SQuantity, 10+rng.Int63n(91))
			stock.f(SYtd, 0)
			stock.i(SOrderCnt, 0)
			stock.i(SRemoteCnt, 0)
			stock.m(SDist, distInfo(rng))
			stock.m(SData, itemData(rng))
			stock.i(SSuSuppkey, int64((w*i)%100))
			stock.end()
		}
	}
	stock.flush()
}

func (db *DB) loadCustomers(rng *rand.Rand) {
	s := db.Sizing
	cust := newAppender(db.Customer)
	for w := 1; w <= s.Warehouses; w++ {
		for d := 1; d <= s.DistrictsPerWH; d++ {
			for c := 1; c <= s.CustomersPerDistrict; c++ {
				credit := "GC"
				if rng.Intn(10) == 0 {
					credit = "BC"
				}
				cust.i(CID, int64(c))
				cust.i(CDID, int64(d))
				cust.i(CWID, int64(w))
				cust.s(CFirst, firstName(rng))
				cust.s(CLast, lastName(rng, c))
				cust.s(CCredit, credit)
				cust.f(CDiscount, rng.Float64()*0.5)
				cust.f(CBalance, -10)
				cust.f(CYtdPayment, 10)
				cust.i(CPaymentCnt, 1)
				cust.i(CSince, LoadDay-rng.Int63n(1000))
				cust.i(CNationkey, int64(((w*13+d*7+c)*17)%25))
				cust.end()
			}
		}
	}
	cust.flush()
}

func (db *DB) loadOrders(rng *rand.Rand) {
	s := db.Sizing
	orders := newAppender(db.Orders)
	lines := newAppender(db.OrderLine)
	lines.memo(OLDistInfo, distInfos, distInfoName)
	for w := 1; w <= s.Warehouses; w++ {
		for d := 1; d <= s.DistrictsPerWH; d++ {
			for o := 1; o <= s.OrdersPerDistrict; o++ {
				c := 1 + rng.Intn(s.CustomersPerDistrict)
				entry := LoadDay - rng.Int63n(365)
				carrier := int64(1 + rng.Intn(10))
				orders.i(OID, int64(o))
				orders.i(ODID, int64(d))
				orders.i(OWID, int64(w))
				orders.i(OCID, int64(c))
				orders.i(OEntryD, entry)
				orders.i(OCarrierID, carrier)
				orders.i(OOlCnt, int64(s.OrderLinesPerOrder))
				orders.i(OAllLocal, 1)
				orders.end()
				for n := 1; n <= s.OrderLinesPerOrder; n++ {
					item := 1 + rng.Intn(s.Items)
					qty := int64(1 + rng.Intn(10))
					price := 1 + rng.Float64()*99
					lines.i(OLOID, int64(o))
					lines.i(OLDID, int64(d))
					lines.i(OLWID, int64(w))
					lines.i(OLNumber, int64(n))
					lines.i(OLIID, int64(item))
					lines.i(OLSupplyWID, int64(w))
					lines.i(OLDeliveryD, entry+rng.Int63n(30))
					lines.i(OLQuantity, qty)
					lines.f(OLAmount, float64(qty)*price)
					lines.m(OLDistInfo, distInfo(rng))
					lines.end()
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

// itemDatas is the number of item-data strings: data-0000 … data-0499,
// then ORIGINAL.
const itemDatas = 501

// itemData draws an item-data string's index, one in ten ORIGINAL.
func itemData(rng *rand.Rand) int {
	if rng.Intn(10) == 0 {
		return itemDatas - 1
	}
	return rng.Intn(itemDatas - 1)
}

func itemDataName(k int) string {
	if k == itemDatas-1 {
		return "ORIGINAL"
	}
	return fmt.Sprintf("data-%04d", k)
}

// distInfos is the number of dist-info strings, dist-000 … dist-099.
const distInfos = 100

// distInfo draws a dist-info string's index.
func distInfo(rng *rand.Rand) int { return rng.Intn(distInfos) }

func distInfoName(k int) string { return fmt.Sprintf("dist-%03d", k) }
