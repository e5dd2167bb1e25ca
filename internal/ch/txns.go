package ch

import (
	"fmt"
	"math/rand"

	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
	"elastichtap/internal/rowblock"
	"elastichtap/internal/txn"
)

// lookup resolves a primary key to a row ID through the table's key index:
// arithmetic on the key for every table it is called on (oltp.KeyIndex),
// where the paper's engine probes a cuckoo hash index.
func lookup(h *oltp.TableHandle, key uint64) (int64, error) {
	row, ok := h.Index.Get(key)
	if !ok {
		return 0, fmt.Errorf("ch: key %d not found in %s index", key, h.Table().Schema().Name)
	}
	return int64(row), nil
}

// maxOrderLines is the most order lines one NewOrder carries (5-15, TPC-C).
const maxOrderLines = 15

// distTxnCode returns the dictionary code of the dist-info string every
// transactional order line carries, resolving it on first use: one
// dictionary lookup per database, not one per order line.
func (db *DB) distTxnCode() int64 {
	if c := db.distTxn.Load(); c != 0 {
		return c - 1
	}
	c := db.OrderLine.Table().Dict(OLDistInfo).Code("dist-txn")
	db.distTxn.Store(c + 1)
	return c
}

// NewOrder builds the TPC-C NewOrder transaction body for warehouse w:
// read the customer's district, claim the next order id, read item prices,
// decrement stock read-modify-write, and insert the order, its neworder
// marker and 5-15 order lines (per the TPC-C specification, §5.1). Rows are
// written as raw words straight into the transaction's insert slots.
func (db *DB) NewOrder(rng *rand.Rand, w int64) oltp.TxnFunc {
	s := db.Sizing
	d := 1 + rng.Int63n(int64(s.DistrictsPerWH))
	c := 1 + rng.Int63n(int64(s.CustomersPerDistrict))
	olCnt := 5 + rng.Intn(maxOrderLines-4)
	var items, qtys [maxOrderLines]int64
	for i := 0; i < olCnt; i++ {
		items[i] = 1 + rng.Int63n(int64(s.Items))
		qtys[i] = 1 + rng.Int63n(10)
	}
	day := db.Day()

	return func(t *txn.Txn) error {
		dRow, err := lookup(db.District, DistrictKey(w, d))
		if err != nil {
			return err
		}
		oID, ok := t.Read(db.District.Ref, dRow, DNextOID)
		if !ok {
			return fmt.Errorf("ch: district row %d invisible", dRow)
		}
		if err := t.Write(db.District.Ref, dRow, DNextOID, oID+1); err != nil {
			return err
		}

		// The district's lock, taken by the write above, is held until
		// the commit has appended the order and run this callback: one
		// NewOrder at a time appends to a district's ids.
		o, err := t.Insert(db.Orders.Ref, 1, func(first int64) {
			if !db.Orders.Index.Put(OrderKey(w, d, oID), uint64(first)) {
				panic(fmt.Sprintf("ch: order %d of district (%d, %d) leaves a gap in its index", oID, w, d))
			}
		})
		if err != nil {
			return err
		}
		o[OID], o[ODID], o[OWID], o[OCID] = oID, d, w, c
		o[OEntryD], o[OCarrierID], o[OOlCnt], o[OAllLocal] = day, 0, int64(olCnt), 1
		no, err := t.Insert(db.NewOrderT.Ref, 1, nil)
		if err != nil {
			return err
		}
		no[NOOID], no[NODID], no[NOWID] = oID, d, w

		// The order lines' slot is filled as the loop goes: no Insert is
		// called until it is full.
		lines, err := t.Insert(db.OrderLine.Ref, olCnt, nil)
		if err != nil {
			return err
		}
		distInfo := db.distTxnCode()
		for i := 0; i < olCnt; i++ {
			iRow, err := lookup(db.Item, ItemKey(items[i]))
			if err != nil {
				return err
			}
			priceW, ok := t.Read(db.Item.Ref, iRow, IPrice)
			if !ok {
				return fmt.Errorf("ch: item row %d invisible", iRow)
			}
			price := columnar.DecodeFloat(priceW)

			sRow, err := lookup(db.Stock, StockKey(w, items[i]))
			if err != nil {
				return err
			}
			qty := qtys[i]
			if err := t.WriteFunc(db.Stock.Ref, sRow, SQuantity, func(old int64) int64 {
				if old-qty >= 10 {
					return old - qty
				}
				return old - qty + 91
			}); err != nil {
				return err
			}
			if err := t.WriteFunc(db.Stock.Ref, sRow, SOrderCnt, func(old int64) int64 {
				return old + 1
			}); err != nil {
				return err
			}
			ol := lines[i*olWidth : (i+1)*olWidth]
			ol[OLOID], ol[OLDID], ol[OLWID], ol[OLNumber] = oID, d, w, int64(i+1)
			ol[OLIID], ol[OLSupplyWID], ol[OLDeliveryD] = items[i], w, day
			ol[OLQuantity], ol[OLAmount] = qty, columnar.EncodeFloat(float64(qty)*price)
			ol[OLDistInfo] = distInfo
		}
		return nil
	}
}

// olWidth is the orderline table's column count.
const olWidth = OLDistInfo + 1

// Payment builds the TPC-C Payment transaction body: update warehouse and
// district year-to-date totals, update the customer's balance and payment
// counters, and insert a history record. It is the update-heavy complement
// to NewOrder used by the freshness experiments that need modified (not
// just inserted) tuples.
func (db *DB) Payment(rng *rand.Rand, w int64) oltp.TxnFunc {
	s := db.Sizing
	d := 1 + rng.Int63n(int64(s.DistrictsPerWH))
	c := 1 + rng.Int63n(int64(s.CustomersPerDistrict))
	amount := 1 + rng.Float64()*4999
	day := db.Day()

	return func(t *txn.Txn) error {
		wRow, err := lookup(db.Warehouse, WarehouseKey(w))
		if err != nil {
			return err
		}
		if err := t.WriteFunc(db.Warehouse.Ref, wRow, WYtd, addFloat(amount)); err != nil {
			return err
		}
		dRow, err := lookup(db.District, DistrictKey(w, d))
		if err != nil {
			return err
		}
		if err := t.WriteFunc(db.District.Ref, dRow, DYtd, addFloat(amount)); err != nil {
			return err
		}
		cRow, err := lookup(db.Customer, CustomerKey(w, d, c))
		if err != nil {
			return err
		}
		if err := t.WriteFunc(db.Customer.Ref, cRow, CBalance, addFloat(-amount)); err != nil {
			return err
		}
		if err := t.WriteFunc(db.Customer.Ref, cRow, CYtdPayment, addFloat(amount)); err != nil {
			return err
		}
		if err := t.WriteFunc(db.Customer.Ref, cRow, CPaymentCnt, func(old int64) int64 {
			return old + 1
		}); err != nil {
			return err
		}
		h, err := t.Insert(db.History.Ref, 1, nil)
		if err != nil {
			return err
		}
		h[HCID], h[HCDID], h[HCWID], h[HDID], h[HWID] = c, d, w, d, w
		h[HDate], h[HAmount] = day, columnar.EncodeFloat(amount)
		return nil
	}
}

func addFloat(delta float64) func(old int64) int64 {
	return func(old int64) int64 {
		return columnar.EncodeFloat(columnar.DecodeFloat(old) + delta)
	}
}

// Mix is an oltp.Workload generating NewOrder (and optionally Payment)
// transactions. Each worker owns one warehouse, the paper's configuration
// ("we assign one warehouse to every worker thread", §5.1), with its own
// deterministic RNG.
type Mix struct {
	DB *DB
	// PaymentPct is the percentage (0-100) of Payment transactions; set it
	// before the workload runs.
	PaymentPct int

	seed int64
	// rngs lists worker w's RNG alone in chunk w, set the first time the
	// worker asks, so the per-transaction path is one atomic load. A
	// worker's RNG is seeded by its number alone and used by that worker
	// alone.
	rngs rowblock.Blocks[rand.Rand]
}

// NewMix returns a workload mix with deterministic per-worker RNGs.
func NewMix(db *DB, paymentPct int, seed int64) *Mix {
	return &Mix{DB: db, PaymentPct: paymentPct, seed: seed}
}

func (m *Mix) rng(worker int) *rand.Rand {
	dir := m.rngs.Dir()
	if worker >= len(dir) || dir[worker] == nil {
		dir = m.rngs.Publish(worker, worker+1, func(i int, r []rand.Rand) []rand.Rand {
			if r == nil {
				r = []rand.Rand{*rand.New(rand.NewSource(m.seed + int64(i)*7919))}
			}
			return r
		})
	}
	return &dir[worker][0]
}

// Next implements oltp.Workload.
func (m *Mix) Next(worker int) oltp.TxnFunc {
	r := m.rng(worker)
	w := int64(worker%m.DB.Sizing.Warehouses) + 1
	if pct := m.PaymentPct; pct > 0 && r.Intn(100) < pct {
		return m.DB.Payment(r, w)
	}
	return m.DB.NewOrder(r, w)
}
