package ch

import "elastichtap/query"

// CH-benCHmark queries expressed through the graph-shaped join surface
// (query.JoinGraph): Q2, Q5 and Q7 join three to five relations, so the
// planner's greedy join ordering — not the written edge order — decides
// the execution plan. Like the linear-join queries in plans.go, each
// shape is written once and exported as a literal constructor and a
// parameterized twin registered in the per-DB prepared cache.
//
// The TPC-H relations the CH schema grafts onto TPC-C are tiny compared
// to the facts (100 suppliers, 25 nations, 5 regions), so these queries
// stress exactly what the paper's zero-statistics setting needs: chains
// of dimension hops keyed off other dimensions' payloads, with one
// highly selective indexed relation (region = EUROPE) for the planner to
// hoist and for the build-side index prefilter to narrow.

func q2(v func(string) any) *query.Plan {
	stock := query.Rel(TStock)
	supp := query.Rel(TSupplier)
	nat := query.Rel(TNation)
	reg := query.Rel(TRegion).Filter(query.Eq("r_name", "EUROPE"))
	return query.Scan(TStock).
		Named("Q2").
		Filter(query.Between("s_quantity", v("qty_lo"), v("qty_hi"))).
		JoinGraph(
			query.JoinOn(stock, supp, "s_su_suppkey", "su_suppkey"),
			query.JoinOn(supp, nat, "su_nationkey", "n_nationkey"),
			query.JoinOn(nat, reg, "n_regionkey", "r_regionkey"),
		).
		GroupBy("su_nationkey").
		Agg(
			query.Count().As("stocks"),
			query.Min("s_quantity").As("min_qty"),
			query.Avg("su_acctbal").As("avg_bal"),
		)
}

// Q2Plan is CH-Q2 (simplified) as a logical plan: stock within a
// quantity bracket, joined through supplier → nation → region restricted
// to EUROPE, grouped per nation with count/min-quantity/avg-balance
// aggregates. qtyHi = 0 defaults the bracket to [10, 40] (Q2Args).
func Q2Plan(qtyLo, qtyHi int64) *query.Plan { return q2(inline(Q2Args(qtyLo, qtyHi))) }

// Q2PlanParam is Q2Plan with the quantity bracket as parameters; the
// EUROPE restriction is plan structure and stays fixed.
func Q2PlanParam() *query.Plan { return q2(query.Param) }

// Q2Args carries Q2's parameter values; qtyHi = 0 defaults the bracket
// to [10, 40].
func Q2Args(qtyLo, qtyHi int64) query.Args {
	if qtyHi == 0 {
		qtyLo, qtyHi = 10, 40
	}
	return query.Args{"qty_lo": qtyLo, "qty_hi": qtyHi}
}

func q5(v func(string) any) *query.Plan {
	fact := query.Rel(TOrderLine)
	stock := query.Rel(TStock)
	supp := query.Rel(TSupplier)
	nat := query.Rel(TNation)
	reg := query.Rel(TRegion).Filter(query.Eq("r_name", "EUROPE"))
	item := query.Rel(TItem).Filter(query.Ge("i_price", v("min_price")))
	return query.Scan(TOrderLine).
		Named("Q5").
		JoinGraph(
			query.JoinOn(fact, stock, "ol_supply_w_id", "s_w_id", "ol_i_id", "s_i_id"),
			query.JoinOn(stock, supp, "s_su_suppkey", "su_suppkey"),
			query.JoinOn(supp, nat, "su_nationkey", "n_nationkey"),
			query.JoinOn(nat, reg, "n_regionkey", "r_regionkey"),
			query.JoinOn(fact, item, "ol_i_id", "i_id"),
		).
		GroupBy("su_nationkey").
		Agg(query.Sum("ol_amount").As("revenue"), query.Count().As("lines")).
		OrderBy("revenue", true)
}

// Q5Plan is CH-Q5 (simplified) as a logical plan: order-line revenue per
// European supplier nation — OrderLine joined with stock (composite
// warehouse/item key), supplier, nation and region (EUROPE), and
// semi-joined with items priced at or above minPrice, ordered by revenue
// descending. minPrice <= 0 defaults to 50 (Q5Args).
//
// The item edge is written last on purpose: greedy ordering still probes
// the selective item semi-join first, because its estimate (item rows,
// halved for the price predicate) undercuts the stock build, which is
// as large as the stock table; the stock → supplier → nation → region
// chain follows in dependency order.
func Q5Plan(minPrice float64) *query.Plan { return q5(inline(Q5Args(minPrice))) }

// Q5PlanParam is Q5Plan with the item price floor as a parameter — a
// build-side join predicate, so stamping exercises the multi-join
// siteJoin path.
func Q5PlanParam() *query.Plan { return q5(query.Param) }

// Q5Args carries Q5's parameter values; minPrice <= 0 defaults to 50.
func Q5Args(minPrice float64) query.Args {
	if minPrice <= 0 {
		minPrice = 50
	}
	return query.Args{"min_price": minPrice}
}

func q7(v func(string) any) *query.Plan {
	fact := query.Rel(TOrderLine)
	ords := query.Rel(TOrders)
	cust := query.Rel(TCustomer)
	stock := query.Rel(TStock)
	supp := query.Rel(TSupplier)
	return query.Scan(TOrderLine).
		Named("Q7").
		Filter(query.Ge("ol_delivery_d", v("since"))).
		JoinGraph(
			query.JoinOn(fact, ords, "ol_w_id", "o_w_id", "ol_d_id", "o_d_id", "ol_o_id", "o_id"),
			query.JoinOn(fact, cust, "ol_w_id", "c_w_id", "ol_d_id", "c_d_id"),
			query.JoinOn(ords, cust, "o_c_id", "c_id"),
			query.JoinOn(fact, stock, "ol_supply_w_id", "s_w_id", "ol_i_id", "s_i_id"),
			query.JoinOn(stock, supp, "s_su_suppkey", "su_suppkey"),
		).
		GroupBy("su_nationkey", "c_nationkey").
		Agg(query.Sum("ol_amount").As("revenue"), query.Count().As("lines"))
}

// Q7Plan is CH-Q7 (simplified) as a logical plan: shipping volume
// between supplier and customer nations — delivered order lines joined
// with orders (composite order key), customer (keyed partly by fact
// columns and partly by the orders join's o_c_id payload), stock and
// supplier, grouped by the two nation keys. since = 0 keeps every
// delivered line.
func Q7Plan(since int64) *query.Plan { return q7(inline(Q7Args(since))) }

// Q7PlanParam is Q7Plan with the delivery cutoff as a parameter.
func Q7PlanParam() *query.Plan { return q7(query.Param) }

// Q7Args carries Q7's parameter values; since = 0 keeps everything.
func Q7Args(since int64) query.Args {
	return query.Args{"since": since}
}
