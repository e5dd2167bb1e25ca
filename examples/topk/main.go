// Top-k analytics: rank warehouses by revenue with the builder's ordered
// query surface — group-by, aggregate, HAVING, ORDER BY ... DESC, LIMIT —
// compiled onto the same morsel-parallel kernels as every other query.
// The ordered merge happens after the per-morsel partials combine, under
// a total order (order column, then group keys), so the ranking is
// bitwise deterministic no matter how the elastic pool schedules, steals
// or resizes mid-query.
package main

import (
	"context"
	"fmt"
	"log"

	"elastichtap"
	"elastichtap/query"
)

func main() {
	sys, err := elastichtap.New()
	if err != nil {
		log.Fatal(err)
	}
	db := sys.LoadCH(0.01, 7)
	if err := sys.StartWorkload(0); err != nil {
		log.Fatal(err)
	}
	sys.Run(3000)

	// Top five warehouses by recent revenue, busiest first; warehouses
	// below the activity floor never rank.
	plan := query.Scan("orderline").
		Named("top-warehouses").
		Filter(query.Ge("ol_delivery_d", db.Day()-90)).
		GroupBy("ol_w_id").
		Agg(query.Sum("ol_amount").As("revenue"), query.Count().As("lines")).
		Having(query.Gt("lines", 100)).
		OrderBy("revenue", true).
		Limit(5)

	q, err := sys.Prepare(plan)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.QueryContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("state %v, class %v, resp %.4fs\n\n", rep.State, q.Class(), rep.ResponseSeconds)
	fmt.Println("rank  warehouse  revenue      lines")
	for i, row := range rep.Result.Rows {
		fmt.Printf("%4d  %9.0f  %11.2f  %5.0f\n", i+1, row[0], row[1], row[2])
	}

	// The full CH top-k shapes ship compiled: Q3 (join + ordered revenue)
	// and Q18 (group-by + having + top-k).
	for _, built := range []elastichtap.Query{elastichtap.Q3(db), elastichtap.Q18(db)} {
		rep, err := sys.QueryContext(context.Background(), built)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: %d rows, top revenue %.2f (state %v)\n",
			rep.Query, len(rep.Result.Rows), topRevenue(rep.Result.Cols, rep.Result.Rows), rep.State)
	}
}

// topRevenue reads the revenue of the first (highest-ranked) row — both
// Q3 and Q18 order by revenue descending.
func topRevenue(cols []string, rows [][]float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	for i, c := range cols {
		if c == "revenue" {
			return rows[0][i]
		}
	}
	return 0
}
