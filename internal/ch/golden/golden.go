// Package golden holds the hand-coded reference executors for the
// CH-benCHmark queries that the declarative builder compiles (Q1, Q3,
// Q6, Q12, Q18, Q19). They are test-only oracles: builder_golden_test.go
// asserts the compiled plans reproduce their results and statistics
// exactly, and the root bench suite measures the builder kernels against
// them. Production code — QuerySet, the experiment harness, the serving
// examples — goes through the builder plans in package ch; nothing
// outside tests and benchmarks should import this package.
package golden

import (
	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/olap"
)

// maxOrderLineNumber bounds the Q1 group domain: TPC-C order lines are
// numbered 1..15.
const maxOrderLineNumber = 15

// Q1 is CH-benCHmark query 1: scan-filter-groupby over OrderLine, grouping
// by ol_number with sum/avg/count aggregates. Golden twin of ch.Q1PlanParam.
type Q1 struct {
	DB *ch.DB
	// MinDeliveryD filters ol_delivery_d > MinDeliveryD; 0 keeps everything.
	MinDeliveryD int64
}

// Name implements olap.Query.
func (q *Q1) Name() string { return "Q1" }

// Class implements olap.Query.
func (q *Q1) Class() costmodel.WorkClass { return costmodel.ScanGroupBy }

// FactTable implements olap.Query.
func (q *Q1) FactTable() string { return ch.TOrderLine }

// Columns implements olap.Query.
func (q *Q1) Columns() []int {
	return []int{ch.OLNumber, ch.OLQuantity, ch.OLAmount, ch.OLDeliveryD}
}

// Prepare implements olap.Query.
func (q *Q1) Prepare() (olap.Exec, int64) { return &q1Exec{min: q.MinDeliveryD}, 0 }

type q1Group struct {
	sumQty, sumAmount float64
	count             int64
}

type q1Local struct {
	min    int64
	groups [maxOrderLineNumber + 1]q1Group
}

func (l *q1Local) Consume(b olap.Block) {
	nums, qtys, amounts, dates := b.Cols[0], b.Cols[1], b.Cols[2], b.Cols[3]
	for i := 0; i < b.N; i++ {
		if dates[i] <= l.min {
			continue
		}
		n := nums[i]
		if n < 0 || n > maxOrderLineNumber {
			continue
		}
		g := &l.groups[n]
		g.sumQty += float64(qtys[i])
		g.sumAmount += columnar.DecodeFloat(amounts[i])
		g.count++
	}
}

type q1Exec struct{ min int64 }

func (e *q1Exec) NewLocal() olap.Local { return &q1Local{min: e.min} }

func (e *q1Exec) Merge(locals []olap.Local) olap.Result {
	var total [maxOrderLineNumber + 1]q1Group
	for _, l := range locals {
		ql := l.(*q1Local)
		for n := range total {
			total[n].sumQty += ql.groups[n].sumQty
			total[n].sumAmount += ql.groups[n].sumAmount
			total[n].count += ql.groups[n].count
		}
	}
	res := olap.Result{Cols: []string{"ol_number", "sum_qty", "sum_amount", "avg_qty", "avg_amount", "count_order"}}
	for n := 1; n <= maxOrderLineNumber; n++ {
		g := total[n]
		if g.count == 0 {
			continue
		}
		res.Rows = append(res.Rows, []float64{
			float64(n), g.sumQty, g.sumAmount,
			g.sumQty / float64(g.count), g.sumAmount / float64(g.count), float64(g.count),
		})
	}
	return res
}

// Q6 is CH-benCHmark query 6: scan-filter-reduce over OrderLine summing
// ol_amount for rows within delivery-date and quantity brackets. Golden
// twin of ch.Q6PlanParam.
type Q6 struct {
	DB *ch.DB
	// Date bracket [DateLo, DateHi); zero values select everything.
	DateLo, DateHi int64
	// Quantity bracket [QtyLo, QtyHi]; zeros default to [1, 100000].
	QtyLo, QtyHi int64
}

// Name implements olap.Query.
func (q *Q6) Name() string { return "Q6" }

// Class implements olap.Query.
func (q *Q6) Class() costmodel.WorkClass { return costmodel.ScanReduce }

// FactTable implements olap.Query.
func (q *Q6) FactTable() string { return ch.TOrderLine }

// Columns implements olap.Query.
func (q *Q6) Columns() []int { return []int{ch.OLDeliveryD, ch.OLQuantity, ch.OLAmount} }

// Prepare implements olap.Query.
func (q *Q6) Prepare() (olap.Exec, int64) {
	e := &q6Exec{dateLo: q.DateLo, dateHi: q.DateHi, qtyLo: q.QtyLo, qtyHi: q.QtyHi}
	if e.dateHi == 0 {
		e.dateHi = 1 << 62
	}
	if e.qtyHi == 0 {
		e.qtyLo, e.qtyHi = 1, 100000
	}
	return e, 0
}

type q6Exec struct {
	dateLo, dateHi, qtyLo, qtyHi int64
}

type q6Local struct {
	*q6Exec
	revenue float64
	count   int64
}

func (e *q6Exec) NewLocal() olap.Local { return &q6Local{q6Exec: e} }

func (l *q6Local) Consume(b olap.Block) {
	dates, qtys, amounts := b.Cols[0], b.Cols[1], b.Cols[2]
	for i := 0; i < b.N; i++ {
		d, q := dates[i], qtys[i]
		if d >= l.dateLo && d < l.dateHi && q >= l.qtyLo && q <= l.qtyHi {
			l.revenue += columnar.DecodeFloat(amounts[i])
			l.count++
		}
	}
}

func (e *q6Exec) Merge(locals []olap.Local) olap.Result {
	var revenue float64
	var count int64
	for _, l := range locals {
		ql := l.(*q6Local)
		revenue += ql.revenue
		count += ql.count
	}
	return olap.Result{
		Cols: []string{"revenue", "count"},
		Rows: [][]float64{{revenue, float64(count)}},
	}
}

// Q19 is CH-benCHmark query 19 (LIKE removed, §5.3): a fact-dimension hash
// join of OrderLine with Item under price and quantity brackets, summing
// revenue. The build side (Item) is broadcast to every probe socket,
// which the cost model charges (§5.3: "the OLAP engine opts for
// broadcast-based join for CH-Q19"). Golden twin of ch.Q19PlanParam.
type Q19 struct {
	DB *ch.DB
	// Brackets; zero values default to (qty in [1,10], price in [1,100]).
	QtyLo, QtyHi     int64
	PriceLo, PriceHi float64
}

// Name implements olap.Query.
func (q *Q19) Name() string { return "Q19" }

// Class implements olap.Query.
func (q *Q19) Class() costmodel.WorkClass { return costmodel.JoinProbe }

// FactTable implements olap.Query.
func (q *Q19) FactTable() string { return ch.TOrderLine }

// Columns implements olap.Query.
func (q *Q19) Columns() []int { return []int{ch.OLIID, ch.OLQuantity, ch.OLAmount} }

// Prepare implements olap.Query: builds the item hash table from the item
// table's active instance (dimension tables are not updated by the
// transactional workload).
func (q *Q19) Prepare() (olap.Exec, int64) {
	qtyLo, qtyHi := q.QtyLo, q.QtyHi
	if qtyHi == 0 {
		qtyLo, qtyHi = 1, 10
	}
	priceLo, priceHi := q.PriceLo, q.PriceHi
	if priceHi == 0 {
		priceLo, priceHi = 1, 100
	}
	it := q.DB.Item.Table()
	rows := it.Rows()
	build := make(map[int64]float64, rows)
	for r := int64(0); r < rows; r++ {
		price := columnar.DecodeFloat(it.ReadActive(r, ch.IPrice))
		if price >= priceLo && price <= priceHi {
			build[it.ReadActive(r, ch.IID)] = price
		}
	}
	// Two 8-byte words per build row (key, price).
	buildBytes := rows * 2 * columnar.WordBytes
	return &q19Exec{build: build, qtyLo: qtyLo, qtyHi: qtyHi}, buildBytes
}

type q19Exec struct {
	build        map[int64]float64
	qtyLo, qtyHi int64
}

type q19Local struct {
	*q19Exec
	revenue float64
	matches int64
}

func (e *q19Exec) NewLocal() olap.Local { return &q19Local{q19Exec: e} }

func (l *q19Local) Consume(b olap.Block) {
	items, qtys, amounts := b.Cols[0], b.Cols[1], b.Cols[2]
	for i := 0; i < b.N; i++ {
		q := qtys[i]
		if q < l.qtyLo || q > l.qtyHi {
			continue
		}
		if _, ok := l.build[items[i]]; ok {
			l.revenue += columnar.DecodeFloat(amounts[i])
			l.matches++
		}
	}
}

func (e *q19Exec) Merge(locals []olap.Local) olap.Result {
	var revenue float64
	var matches int64
	for _, l := range locals {
		ql := l.(*q19Local)
		revenue += ql.revenue
		matches += ql.matches
	}
	return olap.Result{
		Cols: []string{"revenue", "matches"},
		Rows: [][]float64{{revenue, float64(matches)}},
	}
}
