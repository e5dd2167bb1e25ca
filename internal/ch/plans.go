package ch

import (
	"fmt"

	"elastichtap/query"
)

// This file re-expresses the paper's evaluation queries as logical plans
// for the declarative builder; these compiled forms are what production
// runs. The hand-coded executors are kept as test-only golden references
// in internal/ch/golden: builder_golden_test.go (package elastichtap)
// asserts the compiled plans reproduce their results and statistics
// exactly.
//
// Each query's shape is written once, over a source for the values a
// client would vary, and exported in two forms. The parameterized
// constructors (Q1PlanParam and friends) draw query.Param placeholders:
// they bind once per database (DB.PreparedPlan) and are stamped with
// QxArgs values per execution — the facade's Q1..Q19 constructors and
// QuerySet go through this cache, so the evaluation queries pay catalog
// lookup, predicate typing and kernel selection exactly once per DB. The
// literal constructors (Q1Plan and friends) draw the same QxArgs values
// inline, a fresh bind each — what the golden tests hold a stamped
// execution against. Zero-value defaults live in QxArgs alone.

// inline is the value source of the literal plan forms: each variable
// position takes its argument's value where query.Param would leave a
// placeholder.
func inline(args query.Args) func(name string) any {
	return func(name string) any { return args[name] }
}

// Top-N limits are plan structure, not parameters: the prepared forms fix
// them at the queries' defaults.
const (
	q3TopN  = 10
	q18TopN = 100
)

func q1(v func(string) any) *query.Plan {
	return query.Scan(TOrderLine).
		Named("Q1").
		Filter(query.Gt("ol_delivery_d", v("min_delivery_d"))).
		GroupBy("ol_number").
		Agg(
			query.Sum("ol_quantity").As("sum_qty"),
			query.Sum("ol_amount").As("sum_amount"),
			query.Avg("ol_quantity").As("avg_qty"),
			query.Avg("ol_amount").As("avg_amount"),
			query.Count().As("count_order"),
		)
}

// Q1Plan is CH-Q1 as a logical plan: scan-filter-groupby over OrderLine
// grouping by ol_number. minDeliveryD mirrors Q1.MinDeliveryD (rows with
// ol_delivery_d > minDeliveryD qualify; 0 keeps everything).
func Q1Plan(minDeliveryD int64) *query.Plan { return q1(inline(Q1Args(minDeliveryD))) }

// Q1PlanParam is Q1Plan with the delivery-date cutoff as a parameter.
func Q1PlanParam() *query.Plan { return q1(query.Param) }

// Q1Args carries Q1's parameter values.
func Q1Args(minDeliveryD int64) query.Args {
	return query.Args{"min_delivery_d": minDeliveryD}
}

func q6(v func(string) any) *query.Plan {
	return query.Scan(TOrderLine).
		Named("Q6").
		Filter(
			query.Ge("ol_delivery_d", v("date_lo")),
			query.Lt("ol_delivery_d", v("date_hi")),
			query.Between("ol_quantity", v("qty_lo"), v("qty_hi")),
		).
		Agg(
			query.Sum("ol_amount").As("revenue"),
			query.Count().As("count"),
		)
}

// Q6Plan is CH-Q6 as a logical plan: scan-filter-reduce over OrderLine
// within delivery-date and quantity brackets, with Q6Args' zero-value
// defaults.
func Q6Plan(dateLo, dateHi, qtyLo, qtyHi int64) *query.Plan {
	return q6(inline(Q6Args(dateLo, dateHi, qtyLo, qtyHi)))
}

// Q6PlanParam is Q6Plan with the date and quantity brackets as
// parameters.
func Q6PlanParam() *query.Plan { return q6(query.Param) }

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

func q3(v func(string) any, topN int) *query.Plan {
	ol := query.Rel(TOrderLine)
	orders := query.Rel(TOrders).Filter(query.Eq("o_carrier_id", v("carrier")))
	return query.Scan(TOrderLine).
		Named("Q3").
		JoinGraph(query.JoinOn(ol, orders,
			"ol_w_id", "o_w_id", "ol_d_id", "o_d_id", "ol_o_id", "o_id")).
		GroupBy("ol_w_id", "ol_d_id", "ol_o_id", "o_entry_d").
		Agg(query.Sum("ol_amount").As("revenue")).
		OrderBy("revenue", true).
		Limit(topN)
}

// Q3Plan is CH-Q3 (simplified) as a logical plan: OrderLine inner-joined
// with Orders on the composite order key, keeping undelivered orders
// (o_carrier_id = 0), grouping per order with the dimension's o_entry_d
// projected into the group key, ordered by revenue descending, top-N.
// topN <= 0 defaults to 10, exactly like Q3.TopN.
func Q3Plan(topN int) *query.Plan {
	if topN <= 0 {
		topN = q3TopN
	}
	return q3(inline(Q3Args(0)), topN)
}

// Q3PlanParam is Q3Plan with the carrier filter as a parameter and the
// default top-10.
func Q3PlanParam() *query.Plan { return q3(query.Param, q3TopN) }

// Q3PlanCarrier is Q3PlanParam's literal twin — the default top-10 with
// an explicit carrier filter — used by the golden tests to compare
// stamped executions against fresh binds.
func Q3PlanCarrier(carrier int64) *query.Plan { return q3(inline(Q3Args(carrier)), q3TopN) }

// Q3Args carries Q3's parameter values; carrier 0 keeps undelivered
// orders, Q3's default.
func Q3Args(carrier int64) query.Args {
	return query.Args{"carrier": carrier}
}

func q12(v func(string) any) *query.Plan {
	highPriority := query.Between("o_carrier_id", 1, 2)
	ol := query.Rel(TOrderLine)
	orders := query.Rel(TOrders)
	return query.Scan(TOrderLine).
		Named("Q12").
		Filter(query.Ge("ol_delivery_d", v("delivered_since"))).
		JoinGraph(query.JoinOn(ol, orders,
			"ol_w_id", "o_w_id", "ol_d_id", "o_d_id", "ol_o_id", "o_id")).
		GroupBy("o_ol_cnt").
		Agg(
			query.CountIf(highPriority).As("high_line_count"),
			query.CountIf(query.Not(highPriority)).As("low_line_count"),
		)
}

// Q12Plan is CH-Q12 (simplified) as a logical plan: delivered order lines
// joined with Orders, bucketed by the order's line count, split into
// high-priority (carriers 1-2) and low-priority counts with conditional
// aggregation. deliveredSince mirrors Q12.DeliveredSince.
func Q12Plan(deliveredSince int64) *query.Plan { return q12(inline(Q12Args(deliveredSince))) }

// Q12PlanParam is Q12Plan with the delivered-since cutoff as a
// parameter; the priority brackets are fixed by the benchmark.
func Q12PlanParam() *query.Plan { return q12(query.Param) }

// Q12Args carries Q12's parameter values.
func Q12Args(deliveredSince int64) query.Args {
	return query.Args{"delivered_since": deliveredSince}
}

func q18(v func(string) any, topN int) *query.Plan {
	return query.Scan(TOrderLine).
		Named("Q18").
		GroupBy("ol_w_id", "ol_d_id", "ol_o_id").
		Agg(query.Sum("ol_amount").As("revenue"), query.Count().As("lines")).
		Having(query.Gt("revenue", v("min_revenue"))).
		OrderBy("revenue", true).
		Limit(topN)
}

// Q18Plan is CH-Q18 (simplified) as a logical plan: OrderLine grouped by
// the composite order key, keeping orders whose revenue exceeds
// minRevenue (HAVING), ordered by revenue descending, top-N. Zero values
// default exactly like Q18: minRevenue 200 (Q18Args), topN 100.
func Q18Plan(minRevenue float64, topN int) *query.Plan {
	if topN <= 0 {
		topN = q18TopN
	}
	return q18(inline(Q18Args(minRevenue)), topN)
}

// Q18PlanParam is Q18Plan with the revenue threshold as a parameter (a
// Having site, stamped in float space) and the default top-100.
func Q18PlanParam() *query.Plan { return q18(query.Param, q18TopN) }

// Q18Args carries Q18's parameter values; minRevenue <= 0 defaults to
// 200.
func Q18Args(minRevenue float64) query.Args {
	if minRevenue <= 0 {
		minRevenue = 200
	}
	return query.Args{"min_revenue": minRevenue}
}

func q19(v func(string) any) *query.Plan {
	ol := query.Rel(TOrderLine)
	item := query.Rel(TItem).Filter(query.Between("i_price", v("price_lo"), v("price_hi")))
	return query.Scan(TOrderLine).
		Named("Q19").
		Filter(query.Between("ol_quantity", v("qty_lo"), v("qty_hi"))).
		JoinGraph(query.JoinOn(ol, item, "ol_i_id", "i_id")).
		Agg(
			query.Sum("ol_amount").As("revenue"),
			query.Count().As("matches"),
		)
}

// Q19Plan is CH-Q19 (LIKE removed, §5.3) as a logical plan: OrderLine
// semi-joined with Item under price and quantity brackets, summing
// revenue, with Q19Args' zero-value defaults.
func Q19Plan(qtyLo, qtyHi int64, priceLo, priceHi float64) *query.Plan {
	return q19(inline(Q19Args(qtyLo, qtyHi, priceLo, priceHi)))
}

// Q19PlanParam is Q19Plan with the quantity and price brackets as
// parameters (the price pair lands on the semi-join's build side).
func Q19PlanParam() *query.Plan { return q19(query.Param) }

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
