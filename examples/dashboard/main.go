// Dashboard: the paper's "short and fresh" workload class (§2.3) — a high
// rate of simple queries that must see the latest data. The scheduler
// stays in hybrid states (split access over the freshest snapshot), never
// paying an ETL, because each query touches only a sliver of fresh data.
// The dashboard tile is a prepared statement: compiled once, stamped with
// the moving date cutoff at every refresh, and executed under a deadline
// so one slow refresh can never wedge the dashboard.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"elastichtap"
	"elastichtap/query"
)

func main() {
	sys, err := elastichtap.New(
		// Dashboards prefer freshness over ETL amortization.
		elastichtap.WithAlpha(0.95),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	db := sys.LoadCH(0.01, 7)
	if err := sys.StartWorkload(20); err != nil { // NewOrder + some Payments
		log.Fatal(err)
	}

	// "Orders placed since this morning": a filter-reduce plan over the
	// order lines delivered today. Prepared once — catalog lookup,
	// predicate typing and kernel selection happen here, not per refresh;
	// only the date value moves.
	today, err := sys.Prepare(query.Scan("orderline").
		Named("today").
		Filter(query.Ge("ol_delivery_d", query.Param("since"))).
		Agg(query.Sum("ol_amount").As("revenue"), query.Count().As("orders")))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("tick  state  method    resp(s)  fresh-rows  orders-today")
	for tick := 1; tick <= 10; tick++ {
		sys.Run(500)

		// Each refresh stamps the database's current day into the
		// prepared tile and bounds the wait: a refresh that cannot answer
		// in time is cancelled at the next morsel boundary, not queued
		// behind the dashboard forever.
		q, err := today.WithArgs(elastichtap.Args{"since": db.Day()})
		if err != nil {
			log.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		rep, err := sys.QueryContext(ctx, q)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d  %-5v  %-8v  %.4f   %-10d %.0f\n",
			tick, rep.State, rep.Method, rep.ResponseSeconds,
			rep.Nfq/db.OrderLine.Table().Schema().RowBytes(),
			rep.Result.Rows[0][1])
		if rep.ETLSeconds > 0 {
			fmt.Println("      (unexpected ETL for a dashboard query)")
		}
	}
}
