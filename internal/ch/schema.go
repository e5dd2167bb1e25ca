// Package ch implements the CH-benCHmark substrate (§5.1): the TPC-C
// schema plus the TPC-H Supplier, Nation and Region relations, a
// deterministic data generator scaled the TPC-H way (OrderLine =
// SF*6,001,215 with 15 order lines per order at load), the TPC-C NewOrder
// and Payment transactions, and the analytical queries Q1, Q6 and Q19 used
// in the paper's evaluation.
package ch

import (
	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
)

// Table names.
const (
	TWarehouse = "warehouse"
	TDistrict  = "district"
	TCustomer  = "customer"
	THistory   = "history"
	TNewOrder  = "neworder"
	TOrders    = "orders"
	TOrderLine = "orderline"
	TItem      = "item"
	TStock     = "stock"
	TSupplier  = "supplier"
	TNation    = "nation"
	TRegion    = "region"
)

// Warehouse columns.
const (
	WID = iota
	WName
	WCity
	WState
	WTax
	WYtd
)

// District columns.
const (
	DID = iota
	DWID
	DName
	DCity
	DTax
	DYtd
	DNextOID
)

// Customer columns.
const (
	CID = iota
	CDID
	CWID
	CFirst
	CLast
	CCredit
	CDiscount
	CBalance
	CYtdPayment
	CPaymentCnt
	CSince
	CNationkey
)

// History columns.
const (
	HCID = iota
	HCDID
	HCWID
	HDID
	HWID
	HDate
	HAmount
)

// NewOrder columns.
const (
	NOOID = iota
	NODID
	NOWID
)

// Orders columns.
const (
	OID = iota
	ODID
	OWID
	OCID
	OEntryD
	OCarrierID
	OOlCnt
	OAllLocal
)

// OrderLine columns.
const (
	OLOID = iota
	OLDID
	OLWID
	OLNumber
	OLIID
	OLSupplyWID
	OLDeliveryD
	OLQuantity
	OLAmount
	OLDistInfo
)

// Item columns.
const (
	IID = iota
	IImID
	IName
	IPrice
	IData
)

// Stock columns.
const (
	SIID = iota
	SWID
	SQuantity
	SYtd
	SOrderCnt
	SRemoteCnt
	SDist
	SData
	SSuSuppkey
)

// Supplier columns.
const (
	SuSuppkey = iota
	SuName
	SuNationkey
	SuAcctbal
)

// Nation columns.
const (
	NNationkey = iota
	NName
	NRegionkey
)

// Region columns.
const (
	RRegionkey = iota
	RName
)

func ints(names ...string) []columnar.ColumnDef {
	out := make([]columnar.ColumnDef, len(names))
	for i, n := range names {
		out[i] = columnar.ColumnDef{Name: n, Type: columnar.Int64}
	}
	return out
}

func col(name string, t columnar.Type) columnar.ColumnDef {
	return columnar.ColumnDef{Name: name, Type: t}
}

// Schemas returns the full CH-benCHmark catalog keyed by table name.
func Schemas() map[string]columnar.Schema {
	f, s := columnar.Float64, columnar.String
	return map[string]columnar.Schema{
		TWarehouse: {Name: TWarehouse, Columns: []columnar.ColumnDef{
			col("w_id", columnar.Int64), col("w_name", s), col("w_city", s),
			col("w_state", s), col("w_tax", f), col("w_ytd", f),
		}},
		TDistrict: {Name: TDistrict, Columns: []columnar.ColumnDef{
			col("d_id", columnar.Int64), col("d_w_id", columnar.Int64), col("d_name", s),
			col("d_city", s), col("d_tax", f), col("d_ytd", f), col("d_next_o_id", columnar.Int64),
		}},
		TCustomer: {Name: TCustomer, Columns: []columnar.ColumnDef{
			col("c_id", columnar.Int64), col("c_d_id", columnar.Int64), col("c_w_id", columnar.Int64),
			col("c_first", s), col("c_last", s), col("c_credit", s), col("c_discount", f),
			col("c_balance", f), col("c_ytd_payment", f), col("c_payment_cnt", columnar.Int64),
			col("c_since", columnar.Int64), col("c_nationkey", columnar.Int64),
		}},
		THistory: {Name: THistory, Columns: append(
			ints("h_c_id", "h_c_d_id", "h_c_w_id", "h_d_id", "h_w_id", "h_date"),
			col("h_amount", f),
		)},
		TNewOrder: {Name: TNewOrder, Columns: ints("no_o_id", "no_d_id", "no_w_id")},
		TOrders: {Name: TOrders, Columns: ints(
			"o_id", "o_d_id", "o_w_id", "o_c_id", "o_entry_d", "o_carrier_id", "o_ol_cnt", "o_all_local",
		)},
		TOrderLine: {Name: TOrderLine, Columns: []columnar.ColumnDef{
			col("ol_o_id", columnar.Int64), col("ol_d_id", columnar.Int64), col("ol_w_id", columnar.Int64),
			col("ol_number", columnar.Int64), col("ol_i_id", columnar.Int64),
			col("ol_supply_w_id", columnar.Int64), col("ol_delivery_d", columnar.Int64),
			col("ol_quantity", columnar.Int64), col("ol_amount", f), col("ol_dist_info", s),
		}},
		TItem: {Name: TItem, Columns: []columnar.ColumnDef{
			col("i_id", columnar.Int64), col("i_im_id", columnar.Int64), col("i_name", s),
			col("i_price", f), col("i_data", s),
		}},
		TStock: {Name: TStock, Columns: []columnar.ColumnDef{
			col("s_i_id", columnar.Int64), col("s_w_id", columnar.Int64), col("s_quantity", columnar.Int64),
			col("s_ytd", f), col("s_order_cnt", columnar.Int64), col("s_remote_cnt", columnar.Int64),
			col("s_dist", s), col("s_data", s), col("s_su_suppkey", columnar.Int64),
		}},
		TSupplier: {Name: TSupplier, Columns: []columnar.ColumnDef{
			col("su_suppkey", columnar.Int64), col("su_name", s), col("su_nationkey", columnar.Int64),
			col("su_acctbal", f),
		}},
		TNation: {Name: TNation, Columns: []columnar.ColumnDef{
			col("n_nationkey", columnar.Int64), col("n_name", s), col("n_regionkey", columnar.Int64),
		}},
		TRegion: {Name: TRegion, Columns: []columnar.ColumnDef{
			col("r_regionkey", columnar.Int64), col("r_name", s),
		}},
	}
}

// Primary-key encodings: a key is oltp.Key(warehouse, district, id), each
// table passing 0 for the components its key lacks. Every keyed table but
// orders is loaded in key order and never grows, so its oltp.KeyIndex
// resolves a key to its row by arithmetic alone; orders' index appends
// each district's order ids (RebuildIndexes). The paper's engine hashes keys into
// a cuckoo index (§3.2); these dense keys need no hash.

// WarehouseKey encodes a warehouse primary key.
func WarehouseKey(w int64) uint64 { return oltp.Key(w, 0, 0) }

// DistrictKey encodes a district primary key.
func DistrictKey(w, d int64) uint64 { return oltp.Key(w, d, 0) }

// CustomerKey encodes a customer primary key.
func CustomerKey(w, d, c int64) uint64 { return oltp.Key(w, d, c) }

// ItemKey encodes an item primary key.
func ItemKey(i int64) uint64 { return oltp.Key(0, 0, i) }

// StockKey encodes a stock primary key.
func StockKey(w, i int64) uint64 { return oltp.Key(w, 0, i) }

// OrderKey encodes an order primary key.
func OrderKey(w, d, o int64) uint64 { return oltp.Key(w, d, o) }
