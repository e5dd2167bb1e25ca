package ch

import (
	"fmt"
	"math/rand"

	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
	"elastichtap/internal/txn"
)

// Delivery builds the TPC-C Delivery transaction body for warehouse w: for
// each district, pick the oldest undelivered order, stamp its carrier and
// its order lines' delivery dates, and credit the customer's balance.
//
// Delivery is the one transaction that UPDATES OrderLine rows. Once a
// query's fact table has updated (not just inserted) fresh records, the
// split access method becomes unsound and the scheduler must fall back to
// full-remote reads or ETL (§5.2) — this transaction exercises that path.
func (db *DB) Delivery(rng *rand.Rand, w int64) oltp.TxnFunc {
	s := db.Sizing
	carrier := 1 + rng.Int63n(10)
	day := db.Day()

	return func(t *txn.Txn) error {
		for d := int64(1); d <= int64(s.DistrictsPerWH); d++ {
			// Find the oldest undelivered order: scan the order index range
			// from the district's delivered watermark. Without a dedicated
			// NewOrder index we probe ascending order IDs; the probe span is
			// bounded because delivery keeps up with insertion.
			dRow, err := lookup(db.District, DistrictKey(w, d))
			if err != nil {
				return err
			}
			nextOID, ok := t.Read(db.District.Ref, dRow, DNextOID)
			if !ok {
				return fmt.Errorf("ch: district (%d,%d) invisible", w, d)
			}
			var oRow int64 = -1
			var oID int64
			for oID = 1; oID < nextOID; oID++ {
				row, ok := db.Orders.Index.Get(OrderKey(w, d, oID))
				if !ok {
					continue
				}
				carrierSet, ok := t.Read(db.Orders.Ref, int64(row), OCarrierID)
				if !ok {
					continue
				}
				if carrierSet == 0 {
					oRow = int64(row)
					break
				}
			}
			if oRow < 0 {
				continue // district fully delivered
			}
			if err := t.Write(db.Orders.Ref, oRow, OCarrierID, carrier); err != nil {
				return err
			}
			cID, _ := t.Read(db.Orders.Ref, oRow, OCID)
			olCnt, _ := t.Read(db.Orders.Ref, oRow, OOlCnt)

			// Stamp the delivery date on the order's lines and total them.
			var total float64
			updated := 0
			olt := db.OrderLine.Table()
			for r := int64(0); r < olt.Rows() && updated < int(olCnt); r++ {
				// Order lines are clustered by insertion; scan from the end
				// backwards for recent orders, forwards otherwise. A real
				// system would keep an (o_id) index; the scan keeps the
				// substrate honest about update costs.
				ro, ok := t.Read(db.OrderLine.Ref, r, OLOID)
				if !ok || ro != oID {
					continue
				}
				rd, _ := t.Read(db.OrderLine.Ref, r, OLDID)
				rw, _ := t.Read(db.OrderLine.Ref, r, OLWID)
				if rd != d || rw != w {
					continue
				}
				if err := t.Write(db.OrderLine.Ref, r, OLDeliveryD, day); err != nil {
					return err
				}
				amt, _ := t.Read(db.OrderLine.Ref, r, OLAmount)
				total += columnar.DecodeFloat(amt)
				updated++
			}
			cRow, err := lookup(db.Customer, CustomerKey(w, d, cID))
			if err != nil {
				return err
			}
			if err := t.WriteFunc(db.Customer.Ref, cRow, CBalance, addFloat(total)); err != nil {
				return err
			}
		}
		return nil
	}
}

// OrderStatus builds the TPC-C OrderStatus transaction body: a read-only
// inquiry of a customer's most recent order and its lines.
func (db *DB) OrderStatus(rng *rand.Rand, w int64) oltp.TxnFunc {
	s := db.Sizing
	d := 1 + rng.Int63n(int64(s.DistrictsPerWH))
	c := 1 + rng.Int63n(int64(s.CustomersPerDistrict))

	return func(t *txn.Txn) error {
		cRow, err := lookup(db.Customer, CustomerKey(w, d, c))
		if err != nil {
			return err
		}
		if _, ok := t.Read(db.Customer.Ref, cRow, CBalance); !ok {
			return fmt.Errorf("ch: customer (%d,%d,%d) invisible", w, d, c)
		}
		// Most recent order for the customer: walk order IDs downward from
		// the district watermark until one matches the customer.
		dRow, err := lookup(db.District, DistrictKey(w, d))
		if err != nil {
			return err
		}
		nextOID, _ := t.Read(db.District.Ref, dRow, DNextOID)
		for oID := nextOID - 1; oID >= 1; oID-- {
			row, ok := db.Orders.Index.Get(OrderKey(w, d, oID))
			if !ok {
				continue
			}
			ocid, ok := t.Read(db.Orders.Ref, int64(row), OCID)
			if !ok {
				continue
			}
			if ocid == c {
				// Found: read entry date and carrier (the inquiry result).
				t.Read(db.Orders.Ref, int64(row), OEntryD)
				t.Read(db.Orders.Ref, int64(row), OCarrierID)
				return nil
			}
		}
		return nil // customer has no orders yet
	}
}

// StockLevel builds the TPC-C StockLevel transaction body: count recent
// order lines' items whose stock is below a threshold.
func (db *DB) StockLevel(rng *rand.Rand, w int64) oltp.TxnFunc {
	s := db.Sizing
	d := 1 + rng.Int63n(int64(s.DistrictsPerWH))
	threshold := 10 + rng.Int63n(11)

	return func(t *txn.Txn) error {
		dRow, err := lookup(db.District, DistrictKey(w, d))
		if err != nil {
			return err
		}
		nextOID, ok := t.Read(db.District.Ref, dRow, DNextOID)
		if !ok {
			return fmt.Errorf("ch: district (%d,%d) invisible", w, d)
		}
		lo := nextOID - 20
		if lo < 1 {
			lo = 1
		}
		seen := map[int64]struct{}{}
		low := 0
		olt := db.OrderLine.Table()
		// Recent order lines live near the table's tail.
		start := olt.Rows() - 4096
		if start < 0 {
			start = 0
		}
		for r := start; r < olt.Rows(); r++ {
			ro, ok := t.Read(db.OrderLine.Ref, r, OLOID)
			if !ok || ro < lo || ro >= nextOID {
				continue
			}
			rd, _ := t.Read(db.OrderLine.Ref, r, OLDID)
			rw, _ := t.Read(db.OrderLine.Ref, r, OLWID)
			if rd != d || rw != w {
				continue
			}
			item, _ := t.Read(db.OrderLine.Ref, r, OLIID)
			if _, dup := seen[item]; dup {
				continue
			}
			seen[item] = struct{}{}
			sRow, err := lookup(db.Stock, StockKey(w, item))
			if err != nil {
				continue
			}
			qty, ok := t.Read(db.Stock.Ref, sRow, SQuantity)
			if ok && qty < threshold {
				low++
			}
		}
		return nil
	}
}

// FullMix is the complete TPC-C transaction mix at the specification's
// ratios: 45% NewOrder, 43% Payment, 4% each of OrderStatus, Delivery and
// StockLevel. The paper's evaluation runs NewOrder only (§5.1); FullMix is
// provided for workloads that need OrderLine updates (Delivery) or
// read-only inquiries.
type FullMix struct {
	*Mix
}

// NewFullMix returns a full-mix workload with deterministic per-worker
// RNGs.
//
//htap:api the five-transaction TPC-C mix the benchmark's workloads do not run yet
func NewFullMix(db *DB, seed int64) *FullMix {
	return &FullMix{Mix: NewMix(db, 0, seed)}
}

// Next implements oltp.Workload.
func (m *FullMix) Next(worker int) oltp.TxnFunc {
	r := m.rng(worker)
	w := int64(worker%m.DB.Sizing.Warehouses) + 1
	switch p := r.Intn(100); {
	case p < 45:
		return m.DB.NewOrder(r, w)
	case p < 88:
		return m.DB.Payment(r, w)
	case p < 92:
		return m.DB.OrderStatus(r, w)
	case p < 96:
		return m.DB.Delivery(r, w)
	default:
		return m.DB.StockLevel(r, w)
	}
}
