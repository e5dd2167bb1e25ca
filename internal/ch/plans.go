package ch

import (
	"fmt"

	"elastichtap/query"
)

// This file re-expresses the paper's evaluation queries as logical plans
// for the declarative builder; these compiled forms are what production
// runs. The hand-coded executors are kept as test-only golden references
// in internal/ch/golden: builder_golden_test.go (package elastichtap)
// asserts the stamped statements reproduce their results and statistics
// exactly.
//
// Each query has one constructor, Q1PlanParam and friends, whose
// client-varied values are query.Param placeholders. It binds once per
// database (DB.PreparedPlan) and is stamped with QxArgs values per
// execution: the facade's Q1..Q19 constructors and QuerySet go through
// this cache, so the evaluation queries pay catalog lookup, predicate
// typing and kernel selection exactly once per DB. Zero-value defaults
// live in QxArgs alone.

// Q1PlanParam is CH-Q1 as a logical plan: scan-filter-groupby over
// OrderLine grouping by ol_number, keeping rows with ol_delivery_d above
// the min_delivery_d parameter (Q1Args).
func Q1PlanParam() *query.Plan {
	return query.Scan(TOrderLine).
		Named("Q1").
		Filter(query.Gt("ol_delivery_d", query.Param("min_delivery_d"))).
		GroupBy("ol_number").
		Agg(
			query.Sum("ol_quantity").As("sum_qty"),
			query.Sum("ol_amount").As("sum_amount"),
			query.Avg("ol_quantity").As("avg_qty"),
			query.Avg("ol_amount").As("avg_amount"),
			query.Count().As("count_order"),
		)
}

// Q1Args carries Q1's parameter values; 0 keeps everything.
func Q1Args(minDeliveryD int64) query.Args {
	return query.Args{"min_delivery_d": minDeliveryD}
}

// Q6PlanParam is CH-Q6 as a logical plan: scan-filter-reduce over
// OrderLine within delivery-date and quantity brackets, both parameters.
func Q6PlanParam() *query.Plan {
	return query.Scan(TOrderLine).
		Named("Q6").
		Filter(
			query.Ge("ol_delivery_d", query.Param("date_lo")),
			query.Lt("ol_delivery_d", query.Param("date_hi")),
			query.Between("ol_quantity", query.Param("qty_lo"), query.Param("qty_hi")),
		).
		Agg(
			query.Sum("ol_amount").As("revenue"),
			query.Count().As("count"),
		)
}

// Q6Args carries Q6's parameter values. Zero values default exactly like
// the hand-coded Q6: dateHi=0 selects everything, qtyHi=0 selects qty in
// [1,100000].
func Q6Args(dateLo, dateHi, qtyLo, qtyHi int64) query.Args {
	if dateHi == 0 {
		dateHi = 1 << 62
	}
	if qtyHi == 0 {
		qtyLo, qtyHi = 1, 100000
	}
	return query.Args{"date_lo": dateLo, "date_hi": dateHi, "qty_lo": qtyLo, "qty_hi": qtyHi}
}

// Q3PlanParam is CH-Q3 (simplified) as a logical plan: OrderLine
// inner-joined with Orders on the composite order key, keeping orders
// whose o_carrier_id equals the carrier parameter, grouping per order
// with the dimension's o_entry_d projected into the group key, ordered
// by revenue descending, top-10. The limit is plan structure, not a
// parameter.
func Q3PlanParam() *query.Plan {
	ol := query.Rel(TOrderLine)
	orders := query.Rel(TOrders).Filter(query.Eq("o_carrier_id", query.Param("carrier")))
	return query.Scan(TOrderLine).
		Named("Q3").
		JoinGraph(query.JoinOn(ol, orders,
			"ol_w_id", "o_w_id", "ol_d_id", "o_d_id", "ol_o_id", "o_id")).
		GroupBy("ol_w_id", "ol_d_id", "ol_o_id", "o_entry_d").
		Agg(query.Sum("ol_amount").As("revenue")).
		OrderBy("revenue", true).
		Limit(10)
}

// Q3Args carries Q3's parameter values; carrier 0 keeps undelivered
// orders, Q3's default.
func Q3Args(carrier int64) query.Args {
	return query.Args{"carrier": carrier}
}

// Q12PlanParam is CH-Q12 (simplified) as a logical plan: order lines
// delivered since the delivered_since parameter, joined with Orders,
// bucketed by the order's line count, split into high-priority (carriers
// 1-2) and low-priority counts with conditional aggregation. The
// priority brackets are fixed by the benchmark.
func Q12PlanParam() *query.Plan {
	highPriority := query.Between("o_carrier_id", 1, 2)
	ol := query.Rel(TOrderLine)
	orders := query.Rel(TOrders)
	return query.Scan(TOrderLine).
		Named("Q12").
		Filter(query.Ge("ol_delivery_d", query.Param("delivered_since"))).
		JoinGraph(query.JoinOn(ol, orders,
			"ol_w_id", "o_w_id", "ol_d_id", "o_d_id", "ol_o_id", "o_id")).
		GroupBy("o_ol_cnt").
		Agg(
			query.CountIf(highPriority).As("high_line_count"),
			query.CountIf(query.Not(highPriority)).As("low_line_count"),
		)
}

// Q12Args carries Q12's parameter values.
func Q12Args(deliveredSince int64) query.Args {
	return query.Args{"delivered_since": deliveredSince}
}

// Q18PlanParam is CH-Q18 (simplified) as a logical plan: OrderLine
// joined with Orders on the composite order key, as CH-benCHmark's Q18
// joins them, grouped by that key, keeping orders whose revenue exceeds
// the min_revenue parameter (a Having site, stamped in float space),
// ordered by revenue descending, top-100. The join keeps every order line
// — each one's order is committed with it — and projects nothing; it is
// there because its build side fixes the group, so each order's
// accumulators are addressed by the entry the probe finds (a groupjoin)
// instead of by hashing the key.
func Q18PlanParam() *query.Plan {
	ol := query.Rel(TOrderLine)
	orders := query.Rel(TOrders)
	return query.Scan(TOrderLine).
		Named("Q18").
		JoinGraph(query.JoinOn(ol, orders,
			"ol_w_id", "o_w_id", "ol_d_id", "o_d_id", "ol_o_id", "o_id")).
		GroupBy("ol_w_id", "ol_d_id", "ol_o_id").
		Agg(query.Sum("ol_amount").As("revenue"), query.Count().As("lines")).
		Having(query.Gt("revenue", query.Param("min_revenue"))).
		OrderBy("revenue", true).
		Limit(100)
}

// Q18Args carries Q18's parameter values; minRevenue <= 0 defaults to
// 200.
func Q18Args(minRevenue float64) query.Args {
	if minRevenue <= 0 {
		minRevenue = 200
	}
	return query.Args{"min_revenue": minRevenue}
}

// Q19PlanParam is CH-Q19 (LIKE removed, §5.3) as a logical plan:
// OrderLine semi-joined with Item under quantity and price brackets, all
// four parameters (the price pair lands on the semi-join's build side),
// summing revenue.
func Q19PlanParam() *query.Plan {
	ol := query.Rel(TOrderLine)
	item := query.Rel(TItem).Filter(query.Between("i_price", query.Param("price_lo"), query.Param("price_hi")))
	return query.Scan(TOrderLine).
		Named("Q19").
		Filter(query.Between("ol_quantity", query.Param("qty_lo"), query.Param("qty_hi"))).
		JoinGraph(query.JoinOn(ol, item, "ol_i_id", "i_id")).
		Agg(
			query.Sum("ol_amount").As("revenue"),
			query.Count().As("matches"),
		)
}

// Q19Args carries Q19's parameter values. Zero values default exactly
// like the hand-coded Q19: qty in [1,10], price in [1,100].
func Q19Args(qtyLo, qtyHi int64, priceLo, priceHi float64) query.Args {
	if qtyHi == 0 {
		qtyLo, qtyHi = 1, 10
	}
	if priceHi == 0 {
		priceLo, priceHi = 1, 100
	}
	return query.Args{"qty_lo": qtyLo, "qty_hi": qtyHi, "price_lo": priceLo, "price_hi": priceHi}
}

// paramPlans names every parameterized evaluation plan for the per-DB
// prepared cache.
var paramPlans = map[string]func() *query.Plan{
	"Q1":  Q1PlanParam,
	"Q2":  Q2PlanParam,
	"Q3":  Q3PlanParam,
	"Q5":  Q5PlanParam,
	"Q6":  Q6PlanParam,
	"Q7":  Q7PlanParam,
	"Q12": Q12PlanParam,
	"Q18": Q18PlanParam,
	"Q19": Q19PlanParam,
}

// PreparedPlan returns the named evaluation query ("Q1".."Q19") compiled
// as a prepared statement, binding it against this database on first use
// and caching it for the DB's lifetime. Stamp the returned statement with
// query.Compiled.WithArgs (QxArgs builds the default argument sets);
// stamping clones, so concurrent callers may share the cache freely.
func (db *DB) PreparedPlan(name string) (*query.Compiled, error) {
	build, ok := paramPlans[name]
	if !ok {
		return nil, fmt.Errorf("ch: no parameterized plan %q", name)
	}
	db.prepMu.Lock()
	defer db.prepMu.Unlock()
	if c, ok := db.prepared[name]; ok {
		return c, nil
	}
	c, err := build().Bind(db)
	if err != nil {
		return nil, err
	}
	if db.prepared == nil {
		db.prepared = make(map[string]*query.Compiled)
	}
	db.prepared[name] = c
	return c, nil
}
