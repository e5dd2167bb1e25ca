package golden

import (
	"sort"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/olap"
)

// Q3 is CH-benCHmark query 3 (simplified): revenue of the orders with one
// carrier, undelivered ones by default — OrderLine inner-joined with
// Orders on the composite order key, with
// o_entry_d projected from the dimension into the group key — grouped per
// order, ordered by revenue descending, top-N. Output shape, broadcast
// accounting and float arithmetic mirror the builder plan ch.Q3PlanParam
// exactly; this hand-coded executor is its golden reference.
type Q3 struct {
	DB *ch.DB
	// State filters qualifying warehouses by w_state; empty keeps all of
	// them (the builder plan covers the empty-State form).
	State string
	// Carrier keeps the orders whose o_carrier_id equals it, the builder
	// plan's carrier argument; 0, the default, keeps undelivered orders.
	Carrier int64
	// TopN bounds the result (default 10).
	TopN int
}

// Name implements olap.Query.
func (q *Q3) Name() string { return "Q3" }

// Class implements olap.Query: the join projects o_entry_d per matched
// row, so it is a payload join, not an existence probe.
func (q *Q3) Class() costmodel.WorkClass { return costmodel.JoinProject }

// FactTable implements olap.Query.
func (q *Q3) FactTable() string { return ch.TOrderLine }

// Columns implements olap.Query.
func (q *Q3) Columns() []int { return []int{ch.OLWID, ch.OLDID, ch.OLOID, ch.OLAmount} }

// Prepare implements olap.Query: builds the carrier's order hash table
// (OrderKey → entry date) over the orders dimension.
func (q *Q3) Prepare() (olap.Exec, int64) {
	topN := q.TopN
	if topN <= 0 {
		topN = 10
	}
	// CH's Q3 qualifies customers by c_state; our schema stores state on
	// the warehouse, so a non-empty State qualifies warehouses instead.
	wOK := map[int64]bool{}
	wt := q.DB.Warehouse.Table()
	stateCol := wt.Schema().MustColumn("w_state")
	for r := int64(0); r < wt.Rows(); r++ {
		if q.State == "" || wt.DecodeValue(stateCol, wt.ReadActive(r, stateCol)) == q.State {
			wOK[wt.ReadActive(r, ch.WID)] = true
		}
	}
	// The carrier's orders from qualifying warehouses.
	ot := q.DB.Orders.Table()
	orders := make(map[uint64]int64, 1024) // OrderKey -> entry date
	for r := int64(0); r < ot.Rows(); r++ {
		if ot.ReadActive(r, ch.OCarrierID) != q.Carrier {
			continue
		}
		w := ot.ReadActive(r, ch.OWID)
		if !wOK[w] {
			continue
		}
		k := ch.OrderKey(w, ot.ReadActive(r, ch.ODID), ot.ReadActive(r, ch.OID))
		orders[k] = ot.ReadActive(r, ch.OEntryD)
	}
	// Broadcast accounting mirrors the builder's join: every dimension row
	// read charges its touched columns — three keys, the carrier predicate
	// and the entry-date payload. Like the builder, a complete secondary
	// index over the never-updated carrier column narrows the read set to
	// the Eq postings, and the cost model is charged for the narrowed scan.
	buildBytes := narrowedScan(q.DB.Orders, ch.OCarrierID, q.Carrier) * 5 * columnar.WordBytes
	return &q3Exec{orders: orders, topN: topN}, buildBytes
}

type q3Exec struct {
	orders map[uint64]int64
	topN   int
}

type q3Local struct {
	*q3Exec
	revenue map[uint64]float64
}

func (e *q3Exec) NewLocal() olap.Local {
	return &q3Local{q3Exec: e, revenue: map[uint64]float64{}}
}

func (l *q3Local) Consume(b olap.Block) {
	wids, dids, oids, amounts := b.Cols[0], b.Cols[1], b.Cols[2], b.Cols[3]
	for i := 0; i < b.N; i++ {
		k := ch.OrderKey(wids[i], dids[i], oids[i])
		if _, ok := l.orders[k]; ok {
			l.revenue[k] += columnar.DecodeFloat(amounts[i])
		}
	}
}

// Merge combines per-morsel revenue partials in morsel order (bitwise
// deterministic, like the builder's merge), then applies the ordered
// top-k over the fully merged rows.
func (e *q3Exec) Merge(locals []olap.Local) olap.Result {
	total := map[uint64]float64{}
	for _, l := range locals {
		for k, v := range l.(*q3Local).revenue {
			total[k] += v
		}
	}
	rows := make([][]float64, 0, len(total))
	for k, rev := range total {
		// Unpack OrderKey(w, d, o) = w<<48 | d<<40 | o.
		rows = append(rows, []float64{
			float64(k >> 48), float64(k >> 40 & 0xff), float64(k & (1<<40 - 1)),
			float64(e.orders[k]), rev,
		})
	}
	res := olap.Result{
		Cols:       []string{"ol_w_id", "ol_d_id", "ol_o_id", "o_entry_d", "revenue"},
		SortedRows: int64(len(rows)),
	}
	res.Rows = olap.SortRows(rows, olap.Order{Col: 4, Desc: true}, e.topN)
	return res
}

// Q12 is CH-benCHmark query 12 (simplified): per order-line-count bucket,
// count delivered lines split into high/low priority by carrier — an
// OrderLine-Orders join projecting o_carrier_id and o_ol_cnt. Output
// shape, broadcast accounting and arithmetic mirror the builder plan
// ch.Q12PlanParam exactly; this hand-coded executor is its golden reference.
type Q12 struct {
	DB *ch.DB
	// DeliveredSince filters ol_delivery_d >= DeliveredSince.
	DeliveredSince int64
}

// Name implements olap.Query.
func (q *Q12) Name() string { return "Q12" }

// Class implements olap.Query: the join projects carrier and line-count
// payload per matched row.
func (q *Q12) Class() costmodel.WorkClass { return costmodel.JoinProject }

// FactTable implements olap.Query.
func (q *Q12) FactTable() string { return ch.TOrderLine }

// Columns implements olap.Query.
func (q *Q12) Columns() []int { return []int{ch.OLDeliveryD, ch.OLWID, ch.OLDID, ch.OLOID} }

// Prepare implements olap.Query.
func (q *Q12) Prepare() (olap.Exec, int64) {
	ot := q.DB.Orders.Table()
	carrier := make(map[uint64]int64, ot.Rows())
	cnt := make(map[uint64]int64, ot.Rows())
	for r := int64(0); r < ot.Rows(); r++ {
		k := ch.OrderKey(ot.ReadActive(r, ch.OWID), ot.ReadActive(r, ch.ODID), ot.ReadActive(r, ch.OID))
		carrier[k] = ot.ReadActive(r, ch.OCarrierID)
		cnt[k] = ot.ReadActive(r, ch.OOlCnt)
	}
	// Broadcast accounting mirrors the builder's join: three key columns
	// plus the carrier and line-count payloads per dimension row.
	buildBytes := ot.Rows() * 5 * columnar.WordBytes
	return &q12Exec{carrier: carrier, cnt: cnt, since: q.DeliveredSince}, buildBytes
}

type q12Exec struct {
	carrier, cnt map[uint64]int64
	since        int64
}

type q12Local struct {
	*q12Exec
	high, low map[int64]int64
}

func (e *q12Exec) NewLocal() olap.Local {
	return &q12Local{q12Exec: e, high: map[int64]int64{}, low: map[int64]int64{}}
}

func (l *q12Local) Consume(b olap.Block) {
	deliv, wids, dids, oids := b.Cols[0], b.Cols[1], b.Cols[2], b.Cols[3]
	for i := 0; i < b.N; i++ {
		if deliv[i] < l.since {
			continue
		}
		k := ch.OrderKey(wids[i], dids[i], oids[i])
		car, ok := l.carrier[k]
		if !ok {
			continue
		}
		bucket := l.cnt[k]
		// Carriers 1-2 are "high priority" in CH's simplification.
		if car == 1 || car == 2 {
			l.high[bucket]++
		} else {
			l.low[bucket]++
		}
	}
}

func (e *q12Exec) Merge(locals []olap.Local) olap.Result {
	high, low := map[int64]int64{}, map[int64]int64{}
	for _, l := range locals {
		ql := l.(*q12Local)
		for k, v := range ql.high {
			high[k] += v
		}
		for k, v := range ql.low {
			low[k] += v
		}
	}
	seen := map[int64]struct{}{}
	for k := range high {
		seen[k] = struct{}{}
	}
	for k := range low {
		seen[k] = struct{}{}
	}
	keys := make([]int64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	res := olap.Result{Cols: []string{"o_ol_cnt", "high_line_count", "low_line_count"}}
	for _, k := range keys {
		res.Rows = append(res.Rows, []float64{float64(k), float64(high[k]), float64(low[k])})
	}
	return res
}

// Q18 is CH-benCHmark query 18 (simplified): large-volume orders —
// OrderLine grouped by the composite order key with revenue and line
// counts, HAVING revenue above a threshold, ordered by revenue descending,
// top-N. Output shape and float arithmetic mirror the builder plan
// ch.Q18PlanParam exactly; this hand-coded executor is its golden reference.
type Q18 struct {
	DB *ch.DB
	// MinRevenue keeps orders with sum(ol_amount) strictly above it
	// (default 200, the CH threshold).
	MinRevenue float64
	// TopN bounds the result (default 100).
	TopN int
}

// Name implements olap.Query.
func (q *Q18) Name() string { return "Q18" }

// Class implements olap.Query: the builder plan probes orders for each
// order line's order and projects nothing, an existence probe.
func (q *Q18) Class() costmodel.WorkClass { return costmodel.JoinProbe }

// FactTable implements olap.Query.
func (q *Q18) FactTable() string { return ch.TOrderLine }

// Columns implements olap.Query.
func (q *Q18) Columns() []int { return []int{ch.OLWID, ch.OLDID, ch.OLOID, ch.OLAmount} }

// Prepare implements olap.Query. The answer is a group-by/having/top-k
// over the fact table alone: the builder plan's orders join keeps every
// order line, since each one's order commits with it, so this executor
// leaves it out. Broadcast accounting mirrors that join: every orders row
// charges its three key columns.
func (q *Q18) Prepare() (olap.Exec, int64) {
	minRev := q.MinRevenue
	if minRev <= 0 {
		minRev = 200
	}
	topN := q.TopN
	if topN <= 0 {
		topN = 100
	}
	return &q18Exec{minRev: minRev, topN: topN}, q.DB.Orders.Table().Rows() * 3 * columnar.WordBytes
}

type q18Exec struct {
	minRev float64
	topN   int
}

type q18Group struct {
	sum   float64
	lines int64
}

type q18Local struct {
	groups map[[3]int64]*q18Group
}

func (e *q18Exec) NewLocal() olap.Local {
	return &q18Local{groups: map[[3]int64]*q18Group{}}
}

func (l *q18Local) Consume(b olap.Block) {
	wids, dids, oids, amounts := b.Cols[0], b.Cols[1], b.Cols[2], b.Cols[3]
	for i := 0; i < b.N; i++ {
		k := [3]int64{wids[i], dids[i], oids[i]}
		g := l.groups[k]
		if g == nil {
			g = &q18Group{}
			l.groups[k] = g
		}
		g.sum += columnar.DecodeFloat(amounts[i])
		g.lines++
	}
}

// Merge combines per-morsel partials in morsel order — each group's
// revenue adds in the same sequence the builder's merge uses, so sums are
// bitwise identical — then filters on the HAVING threshold and applies
// the ordered top-k over fully merged rows.
func (e *q18Exec) Merge(locals []olap.Local) olap.Result {
	total := map[[3]int64]*q18Group{}
	for _, l := range locals {
		for k, g := range l.(*q18Local).groups {
			t := total[k]
			if t == nil {
				t = &q18Group{}
				total[k] = t
			}
			t.sum += g.sum
			t.lines += g.lines
		}
	}
	rows := make([][]float64, 0, len(total))
	for k, g := range total {
		if g.sum > e.minRev {
			rows = append(rows, []float64{
				float64(k[0]), float64(k[1]), float64(k[2]), g.sum, float64(g.lines),
			})
		}
	}
	res := olap.Result{
		Cols:       []string{"ol_w_id", "ol_d_id", "ol_o_id", "revenue", "lines"},
		SortedRows: int64(len(rows)),
	}
	res.Rows = olap.SortRows(rows, olap.Order{Col: 3, Desc: true}, e.topN)
	return res
}
