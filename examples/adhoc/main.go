// Ad-hoc analytics: the paper's third workload class (§2.3) — dynamic
// queries mixing historical and fresh data. New questions are expressed
// declaratively with the query builder instead of hand-writing executors:
// each plan compiles onto the generic OLAP kernels with a work class
// inferred from its shape, so the adaptive scheduler times it correctly
// when choosing S1/S2/S3 per query.
package main

import (
	"context"
	"fmt"
	"log"

	"elastichtap"
	"elastichtap/query"
)

func main() {
	sys, err := elastichtap.New(elastichtap.WithAlpha(0.7))
	if err != nil {
		log.Fatal(err)
	}
	db := sys.LoadCH(0.01, 99)
	if err := sys.StartWorkload(10); err != nil {
		log.Fatal(err)
	}

	// The analyst's question stream — none of these are the built-in
	// Q1/Q6/Q19. Plans are plain values: build them once, bind per use.
	plans := []*query.Plan{
		// Revenue and volume by warehouse for recent deliveries
		// (filter + group-by: a ScanGroupBy pipeline).
		query.Scan("orderline").
			Named("wh-revenue").
			Filter(query.Ge("ol_delivery_d", db.Day()-30)).
			GroupBy("ol_w_id").
			Agg(query.Sum("ol_amount").As("revenue"), query.Count().As("lines")),

		// Largest and smallest line amounts per order-line slot for bulk
		// orders (filter + group-by with min/max).
		query.Scan("orderline").
			Named("bulk-extremes").
			Filter(query.Ge("ol_quantity", 7)).
			GroupBy("ol_number").
			Agg(query.Min("ol_amount").As("min_amount"), query.Max("ol_amount").As("max_amount")),

		// Revenue from premium items (an existence-only graph edge
		// against the item dimension: a JoinProbe pipeline,
		// broadcast-costed).
		query.Scan("orderline").
			Named("premium-items").
			JoinGraph(query.JoinOn(
				query.Rel("orderline"),
				query.Rel("item").Filter(query.Ge("i_price", 90.0)),
				"ol_i_id", "i_id")).
			Agg(query.Sum("ol_amount").As("revenue"), query.Count().As("matches")),

		// Average basket quantity across everything (a bare ScanReduce).
		query.Scan("orderline").
			Named("avg-basket").
			Agg(query.Avg("ol_quantity").As("avg_qty"), query.Count()),
	}

	fmt.Println("round  query           class         state  method    resp(s)  rows")
	for round := 1; round <= 8; round++ {
		sys.Run(2000)
		plan := plans[(round-1)%len(plans)]
		q, err := sys.Prepare(plan)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sys.QueryContext(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %-14s  %-12v  %-5v  %-8v  %.4f   %d\n",
			round, rep.Query, q.Class(), rep.State, rep.Method,
			rep.ResponseSeconds, len(rep.Result.Rows))
	}

	rate, _ := sys.Freshness()
	fmt.Printf("\nfinal state %v, freshness %.4f\n", sys.CurrentState(), rate)
}
