package golden

import (
	"sort"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
)

// Golden twins of the graph-join plans in internal/ch/graphplans.go:
// Q2, Q5 and Q7 join three to five relations, so they pin down not just
// the builder's arithmetic but the greedy join ordering's invariant that
// plan order never changes results, build accounting, or output shape.

// narrowedScan mirrors the builder's build-side index prefilter
// accounting: an Eq predicate on a never-updated indexed dimension
// column narrows the build scan to the posting list, and the cost model
// is charged for the narrowed scan; otherwise the full row count is
// charged.
func narrowedScan(h *oltp.TableHandle, col int, v int64) int64 {
	t := h.Table()
	if t.ColumnUpdateCount(col) == 0 {
		if post, wm, ok := h.Sec.Lookup(col, v); ok && wm == t.Rows() {
			return int64(len(post))
		}
	}
	return t.Rows()
}

// europeRegions resolves the region keys named "EUROPE" plus the
// build-bytes charge for scanning the region dimension (narrowed by the
// r_name index, two words per row: key and predicate column), mirroring
// the builder's region build in Q2PlanParam/Q5PlanParam.
func europeRegions(db *ch.DB) (map[int64]bool, int64) {
	rt := db.Region.Table()
	euro := map[int64]bool{}
	code, ok := rt.Dict(ch.RName).Lookup("EUROPE")
	if !ok {
		return euro, rt.Rows() * 2 * columnar.WordBytes
	}
	for r := int64(0); r < rt.Rows(); r++ {
		if rt.ReadActive(r, ch.RName) == code {
			euro[rt.ReadActive(r, ch.RRegionkey)] = true
		}
	}
	return euro, narrowedScan(db.Region, ch.RName, code) * 2 * columnar.WordBytes
}

// Q2 is CH-benCHmark query 2 (simplified): stock within a quantity
// bracket joined through supplier → nation → region restricted to
// EUROPE, grouped per supplier nation with count/min-quantity/
// avg-balance aggregates. Golden twin of ch.Q2PlanParam.
type Q2 struct {
	DB *ch.DB
	// QtyLo/QtyHi bracket s_quantity; QtyHi = 0 defaults to [10, 40].
	QtyLo, QtyHi int64
}

// Name implements olap.Query.
func (q *Q2) Name() string { return "Q2" }

// Class implements olap.Query: the supplier join projects nation key and
// balance payload per matched row.
func (q *Q2) Class() costmodel.WorkClass { return costmodel.JoinProject }

// FactTable implements olap.Query: Q2's fact is the stock table.
func (q *Q2) FactTable() string { return ch.TStock }

// Columns implements olap.Query.
func (q *Q2) Columns() []int { return []int{ch.SQuantity, ch.SSuSuppkey} }

type q2Supplier struct {
	nation int64
	acct   float64
}

// Prepare implements olap.Query: builds the supplier → nation → region
// chain as lookup maps, charging each dimension's touched columns like
// the builder's per-join broadcast accounting (supplier: key plus two
// payloads; nation: key plus region payload; region: key plus name
// predicate, narrowed by the r_name index).
func (q *Q2) Prepare() (olap.Exec, int64) {
	lo, hi := q.QtyLo, q.QtyHi
	if hi == 0 {
		lo, hi = 10, 40
	}
	euro, buildBytes := europeRegions(q.DB)
	nt := q.DB.Nation.Table()
	nations := make(map[int64]int64, nt.Rows())
	for r := int64(0); r < nt.Rows(); r++ {
		nations[nt.ReadActive(r, ch.NNationkey)] = nt.ReadActive(r, ch.NRegionkey)
	}
	st := q.DB.Supplier.Table()
	suppliers := make(map[int64]q2Supplier, st.Rows())
	for r := int64(0); r < st.Rows(); r++ {
		suppliers[st.ReadActive(r, ch.SuSuppkey)] = q2Supplier{
			nation: st.ReadActive(r, ch.SuNationkey),
			acct:   columnar.DecodeFloat(st.ReadActive(r, ch.SuAcctbal)),
		}
	}
	buildBytes += st.Rows()*3*columnar.WordBytes + nt.Rows()*2*columnar.WordBytes
	return &q2Exec{suppliers: suppliers, nations: nations, euro: euro, lo: lo, hi: hi}, buildBytes
}

type q2Exec struct {
	suppliers map[int64]q2Supplier
	nations   map[int64]int64
	euro      map[int64]bool
	lo, hi    int64
}

type q2Group struct {
	stocks int64
	minQty float64
	balSum float64
}

type q2Local struct {
	*q2Exec
	groups map[int64]*q2Group
}

func (e *q2Exec) NewLocal() olap.Local {
	return &q2Local{q2Exec: e, groups: map[int64]*q2Group{}}
}

func (l *q2Local) Consume(b olap.Block) {
	qty, suppkey := b.Cols[0], b.Cols[1]
	for i := 0; i < b.N; i++ {
		if qty[i] < l.lo || qty[i] > l.hi {
			continue
		}
		sp, ok := l.suppliers[suppkey[i]]
		if !ok {
			continue
		}
		rk, ok := l.nations[sp.nation]
		if !ok || !l.euro[rk] {
			continue
		}
		g := l.groups[sp.nation]
		if g == nil {
			g = &q2Group{minQty: float64(qty[i])}
			l.groups[sp.nation] = g
		} else if f := float64(qty[i]); f < g.minQty {
			g.minQty = f
		}
		g.stocks++
		g.balSum += sp.acct
	}
}

// Merge combines per-morsel partials in morsel order — balance sums add
// in the same sequence the builder's merge uses — and emits one row per
// nation in ascending key order; the average divides the merged sum by
// the merged row count, exactly like the builder's Avg.
func (e *q2Exec) Merge(locals []olap.Local) olap.Result {
	total := map[int64]*q2Group{}
	for _, l := range locals {
		for k, g := range l.(*q2Local).groups {
			t := total[k]
			if t == nil {
				t = &q2Group{minQty: g.minQty}
				total[k] = t
			} else if g.minQty < t.minQty {
				t.minQty = g.minQty
			}
			t.stocks += g.stocks
			t.balSum += g.balSum
		}
	}
	keys := make([]int64, 0, len(total))
	for k := range total {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	res := olap.Result{Cols: []string{"su_nationkey", "stocks", "min_qty", "avg_bal"}}
	for _, k := range keys {
		g := total[k]
		res.Rows = append(res.Rows, []float64{
			float64(k), float64(g.stocks), g.minQty, g.balSum / float64(g.stocks),
		})
	}
	return res
}

// Q5 is CH-benCHmark query 5 (simplified): order-line revenue per
// European supplier nation — OrderLine joined with stock, supplier,
// nation and region (EUROPE) and semi-joined with items at or above a
// price floor — ordered by revenue descending. Golden twin of ch.Q5PlanParam.
type Q5 struct {
	DB *ch.DB
	// MinPrice keeps items with i_price >= MinPrice (<= 0 defaults to 50).
	MinPrice float64
}

// Name implements olap.Query.
func (q *Q5) Name() string { return "Q5" }

// Class implements olap.Query.
func (q *Q5) Class() costmodel.WorkClass { return costmodel.JoinProject }

// FactTable implements olap.Query.
func (q *Q5) FactTable() string { return ch.TOrderLine }

// Columns implements olap.Query.
func (q *Q5) Columns() []int { return []int{ch.OLSupplyWID, ch.OLIID, ch.OLAmount} }

// Prepare implements olap.Query: builds the item semi-join set and the
// stock → supplier → nation → region chain, charging each dimension's
// touched columns like the builder's per-join accounting (item: key plus
// price predicate; stock: two keys plus supplier payload; supplier and
// nation: key plus one payload; region: key plus name predicate,
// narrowed by the r_name index).
func (q *Q5) Prepare() (olap.Exec, int64) {
	minPrice := q.MinPrice
	if minPrice <= 0 {
		minPrice = 50
	}
	it := q.DB.Item.Table()
	items := make(map[int64]struct{}, it.Rows())
	for r := int64(0); r < it.Rows(); r++ {
		if columnar.DecodeFloat(it.ReadActive(r, ch.IPrice)) >= minPrice {
			items[it.ReadActive(r, ch.IID)] = struct{}{}
		}
	}
	st := q.DB.Stock.Table()
	stock := make(map[uint64]int64, st.Rows())
	for r := int64(0); r < st.Rows(); r++ {
		k := ch.StockKey(st.ReadActive(r, ch.SWID), st.ReadActive(r, ch.SIID))
		stock[k] = st.ReadActive(r, ch.SSuSuppkey)
	}
	sup := q.DB.Supplier.Table()
	suppliers := make(map[int64]int64, sup.Rows())
	for r := int64(0); r < sup.Rows(); r++ {
		suppliers[sup.ReadActive(r, ch.SuSuppkey)] = sup.ReadActive(r, ch.SuNationkey)
	}
	nt := q.DB.Nation.Table()
	nations := make(map[int64]int64, nt.Rows())
	for r := int64(0); r < nt.Rows(); r++ {
		nations[nt.ReadActive(r, ch.NNationkey)] = nt.ReadActive(r, ch.NRegionkey)
	}
	euro, regionBytes := europeRegions(q.DB)
	buildBytes := it.Rows()*2*columnar.WordBytes +
		st.Rows()*3*columnar.WordBytes +
		sup.Rows()*2*columnar.WordBytes +
		nt.Rows()*2*columnar.WordBytes +
		regionBytes
	return &q5Exec{items: items, stock: stock, suppliers: suppliers, nations: nations, euro: euro}, buildBytes
}

type q5Exec struct {
	items     map[int64]struct{}
	stock     map[uint64]int64
	suppliers map[int64]int64
	nations   map[int64]int64
	euro      map[int64]bool
}

type q5Group struct {
	revenue float64
	lines   int64
}

type q5Local struct {
	*q5Exec
	groups map[int64]*q5Group
}

func (e *q5Exec) NewLocal() olap.Local {
	return &q5Local{q5Exec: e, groups: map[int64]*q5Group{}}
}

func (l *q5Local) Consume(b olap.Block) {
	sw, iid, amounts := b.Cols[0], b.Cols[1], b.Cols[2]
	for i := 0; i < b.N; i++ {
		if _, ok := l.items[iid[i]]; !ok {
			continue
		}
		sk, ok := l.stock[ch.StockKey(sw[i], iid[i])]
		if !ok {
			continue
		}
		nk, ok := l.suppliers[sk]
		if !ok {
			continue
		}
		rk, ok := l.nations[nk]
		if !ok || !l.euro[rk] {
			continue
		}
		g := l.groups[nk]
		if g == nil {
			g = &q5Group{}
			l.groups[nk] = g
		}
		g.revenue += columnar.DecodeFloat(amounts[i])
		g.lines++
	}
}

// Merge combines per-morsel partials in morsel order, emits one row per
// nation, then fully sorts by revenue descending like the builder's
// ordered (no-limit) output.
func (e *q5Exec) Merge(locals []olap.Local) olap.Result {
	total := map[int64]*q5Group{}
	for _, l := range locals {
		for k, g := range l.(*q5Local).groups {
			t := total[k]
			if t == nil {
				t = &q5Group{}
				total[k] = t
			}
			t.revenue += g.revenue
			t.lines += g.lines
		}
	}
	rows := make([][]float64, 0, len(total))
	for k, g := range total {
		rows = append(rows, []float64{float64(k), g.revenue, float64(g.lines)})
	}
	res := olap.Result{
		Cols:       []string{"su_nationkey", "revenue", "lines"},
		SortedRows: int64(len(rows)),
	}
	res.Rows = olap.SortRows(rows, olap.Order{Col: 1, Desc: true}, 0)
	return res
}

// Q7 is CH-benCHmark query 7 (simplified): shipping volume between
// supplier and customer nations — delivered order lines joined with
// orders, customer, stock and supplier, grouped by the two nation keys.
// Golden twin of ch.Q7PlanParam.
type Q7 struct {
	DB *ch.DB
	// Since filters ol_delivery_d >= Since (0 keeps everything).
	Since int64
}

// Name implements olap.Query.
func (q *Q7) Name() string { return "Q7" }

// Class implements olap.Query.
func (q *Q7) Class() costmodel.WorkClass { return costmodel.JoinProject }

// FactTable implements olap.Query.
func (q *Q7) FactTable() string { return ch.TOrderLine }

// Columns implements olap.Query.
func (q *Q7) Columns() []int {
	return []int{ch.OLDeliveryD, ch.OLWID, ch.OLDID, ch.OLOID, ch.OLSupplyWID, ch.OLIID, ch.OLAmount}
}

// Prepare implements olap.Query: builds the orders → customer and
// stock → supplier chains, charging each dimension's touched columns
// like the builder's per-join accounting (orders and customer: three
// keys plus one payload; stock: two keys plus one payload; supplier:
// key plus nation payload).
func (q *Q7) Prepare() (olap.Exec, int64) {
	ot := q.DB.Orders.Table()
	orders := make(map[uint64]int64, ot.Rows())
	for r := int64(0); r < ot.Rows(); r++ {
		k := ch.OrderKey(ot.ReadActive(r, ch.OWID), ot.ReadActive(r, ch.ODID), ot.ReadActive(r, ch.OID))
		orders[k] = ot.ReadActive(r, ch.OCID)
	}
	ct := q.DB.Customer.Table()
	customers := make(map[uint64]int64, ct.Rows())
	for r := int64(0); r < ct.Rows(); r++ {
		k := ch.CustomerKey(ct.ReadActive(r, ch.CWID), ct.ReadActive(r, ch.CDID), ct.ReadActive(r, ch.CID))
		customers[k] = ct.ReadActive(r, ch.CNationkey)
	}
	st := q.DB.Stock.Table()
	stock := make(map[uint64]int64, st.Rows())
	for r := int64(0); r < st.Rows(); r++ {
		k := ch.StockKey(st.ReadActive(r, ch.SWID), st.ReadActive(r, ch.SIID))
		stock[k] = st.ReadActive(r, ch.SSuSuppkey)
	}
	sup := q.DB.Supplier.Table()
	suppliers := make(map[int64]int64, sup.Rows())
	for r := int64(0); r < sup.Rows(); r++ {
		suppliers[sup.ReadActive(r, ch.SuSuppkey)] = sup.ReadActive(r, ch.SuNationkey)
	}
	buildBytes := ot.Rows()*4*columnar.WordBytes +
		ct.Rows()*4*columnar.WordBytes +
		st.Rows()*3*columnar.WordBytes +
		sup.Rows()*2*columnar.WordBytes
	return &q7Exec{
		orders: orders, customers: customers, stock: stock,
		suppliers: suppliers, since: q.Since,
	}, buildBytes
}

type q7Exec struct {
	orders    map[uint64]int64
	customers map[uint64]int64
	stock     map[uint64]int64
	suppliers map[int64]int64
	since     int64
}

type q7Local struct {
	*q7Exec
	groups map[[2]int64]*q5Group
}

func (e *q7Exec) NewLocal() olap.Local {
	return &q7Local{q7Exec: e, groups: map[[2]int64]*q5Group{}}
}

func (l *q7Local) Consume(b olap.Block) {
	deliv, wids, dids, oids := b.Cols[0], b.Cols[1], b.Cols[2], b.Cols[3]
	sw, iid, amounts := b.Cols[4], b.Cols[5], b.Cols[6]
	for i := 0; i < b.N; i++ {
		if deliv[i] < l.since {
			continue
		}
		cid, ok := l.orders[ch.OrderKey(wids[i], dids[i], oids[i])]
		if !ok {
			continue
		}
		cn, ok := l.customers[ch.CustomerKey(wids[i], dids[i], cid)]
		if !ok {
			continue
		}
		sk, ok := l.stock[ch.StockKey(sw[i], iid[i])]
		if !ok {
			continue
		}
		sn, ok := l.suppliers[sk]
		if !ok {
			continue
		}
		g := l.groups[[2]int64{sn, cn}]
		if g == nil {
			g = &q5Group{}
			l.groups[[2]int64{sn, cn}] = g
		}
		g.revenue += columnar.DecodeFloat(amounts[i])
		g.lines++
	}
}

// Merge combines per-morsel partials in morsel order and emits one row
// per (supplier nation, customer nation) pair in ascending key order.
func (e *q7Exec) Merge(locals []olap.Local) olap.Result {
	total := map[[2]int64]*q5Group{}
	for _, l := range locals {
		for k, g := range l.(*q7Local).groups {
			t := total[k]
			if t == nil {
				t = &q5Group{}
				total[k] = t
			}
			t.revenue += g.revenue
			t.lines += g.lines
		}
	}
	keys := make([][2]int64, 0, len(total))
	for k := range total {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	res := olap.Result{Cols: []string{"su_nationkey", "c_nationkey", "revenue", "lines"}}
	for _, k := range keys {
		g := total[k]
		res.Rows = append(res.Rows, []float64{float64(k[0]), float64(k[1]), g.revenue, float64(g.lines)})
	}
	return res
}
