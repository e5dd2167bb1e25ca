// Command htapctl drives an interactive-scale HTAP scenario and prints
// the scheduler's behavior and system metrics — an operator's smoke test
// of the session API: every round executes under a context (optionally
// deadlined with -timeout), and the per-round queries are prepared
// statements stamped with fresh parameter values each round.
//
// Usage:
//
//	htapctl -sf 0.01 -rounds 10 -txns 500 -payment 20 -alpha 0.7 -query Q6
//	htapctl -state S2            # pin a static state instead of adapting
//	htapctl -query adhoc         # a prepared group-by report, stamped per round
//	htapctl -timeout 30s         # deadline the whole run
//	htapctl -tenant dashboards   # run the rounds as a registered tenant
//	htapctl -checkpoint /tmp/db  # WAL every commit, checkpoint after the rounds
//	htapctl -restore /tmp/db     # recover from the checkpoint + WAL and continue
//
// With -tenant the rounds pass the workload manager's admission gate as
// that tenant (registered up front with -tenantweight), and the final
// metrics include the per-tenant table: admissions, rejections, queue
// wait, morsels dispatched and bytes charged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"elastichtap"
	"elastichtap/query"
)

func main() {
	var (
		sf        = flag.Float64("sf", 0.01, "CH-benCHmark scale factor")
		seed      = flag.Int64("seed", 42, "generator seed")
		rounds    = flag.Int("rounds", 10, "transaction/query rounds")
		txns      = flag.Int("txns", 500, "transactions per round")
		payment   = flag.Int("payment", 0, "Payment percentage in the mix")
		alpha     = flag.Float64("alpha", 0.7, "ETL sensitivity α")
		state     = flag.String("state", "", "pin a static state: S1, S2, S3-IS, S3-NI (empty = adaptive)")
		queryName = flag.String("query", "Q6", "query per round: Q1, Q3, Q6, Q12, Q18, Q19, mix, adhoc, topk")
		emulate   = flag.Float64("emulate", 300, "report timings as if at this scale factor")
		timeout   = flag.Duration("timeout", 0, "deadline for the whole run (0 = none); expiry cancels the in-flight query at the next morsel boundary")
		tenant    = flag.String("tenant", "", "run the round queries as this workload-manager tenant (empty = default tenant)")
		weight    = flag.Int("tenantweight", 4, "fair-share weight for -tenant")
		ckptDir   = flag.String("checkpoint", "", "durability directory: log every commit to its WAL and write a whole-database checkpoint after the rounds")
		restore   = flag.String("restore", "", "recover the database from this durability directory instead of loading fresh (-sf/-seed are ignored)")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []elastichtap.Option{elastichtap.WithAlpha(*alpha)}
	if *emulate > 0 && *sf > 0 {
		opts = append(opts, elastichtap.WithEmulatedScale(*sf, *emulate))
	}
	var (
		sys *elastichtap.System
		db  *elastichtap.DB
		err error
	)
	if *restore != "" {
		var info elastichtap.RecoveryInfo
		sys, info, err = elastichtap.OpenFromDir(elastichtap.DiskFS(), *restore, opts...)
		if err != nil {
			log.Fatal(err)
		}
		db = sys.DB()
		fmt.Printf("recovered from %s: checkpoint %d + %d WAL transactions (%d commits total)",
			*restore, info.Seq, info.Replayed, info.Commits)
		if info.Truncated {
			fmt.Printf("; torn log tail discarded at byte %d", info.ValidPos)
		}
		fmt.Println()
	} else {
		sys, err = elastichtap.New(opts...)
		if err != nil {
			log.Fatal(err)
		}
		db = sys.LoadCH(*sf, *seed)
	}
	defer sys.Close()
	if *ckptDir != "" {
		if err := sys.EnableWAL(elastichtap.DiskFS(), *ckptDir, elastichtap.SyncAlways, 0); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.StartWorkload(*payment); err != nil {
		log.Fatal(err)
	}
	if *tenant != "" {
		err := sys.RegisterTenant(*tenant, elastichtap.TenantConfig{
			Weight:        *weight,
			MaxConcurrent: elastichtap.UnlimitedQuota,
			MaxQueueDepth: elastichtap.UnlimitedQuota,
		})
		if err != nil {
			log.Fatal(err)
		}
		ctx = elastichtap.WithTenant(ctx, *tenant)
	}

	var forced *elastichtap.State
	if *state != "" {
		st, err := parseState(*state)
		if err != nil {
			log.Fatal(err)
		}
		forced = &st
	}

	// The ad-hoc reports are prepared once — catalog lookup, predicate
	// typing and kernel selection up front — and stamped with the moving
	// date cutoff each round.
	weekly := query.Scan("orderline").
		Filter(query.Ge("ol_delivery_d", query.Param("since"))).
		GroupBy("ol_w_id").
		Agg(query.Sum("ol_amount").As("revenue"), query.Count())
	var stmt *elastichtap.Stmt
	switch strings.ToUpper(*queryName) {
	case "TOPK":
		stmt, err = sys.Prepare(weekly.Named("topk").OrderBy("revenue", true).Limit(5))
	case "ADHOC":
		stmt, err = sys.Prepare(weekly.Named("adhoc"))
	}
	if err != nil {
		log.Fatal(err)
	}

	mix := db.QuerySet()
	round := 0
	pick := func() elastichtap.Query {
		if stmt != nil {
			// Stamp this round's date cutoff into the prepared report.
			q, err := stmt.WithArgs(elastichtap.Args{"since": db.Day() - 7})
			if err != nil {
				log.Fatal(err)
			}
			return q
		}
		switch strings.ToUpper(*queryName) {
		case "Q1":
			return elastichtap.Q1(db)
		case "Q3":
			return elastichtap.Q3(db)
		case "Q12":
			return elastichtap.Q12(db)
		case "Q18":
			return elastichtap.Q18(db)
		case "Q19":
			return elastichtap.Q19(db)
		case "MIX":
			// Rotate through the full analytical mix, one query per round.
			q := mix[round%len(mix)]
			round++
			return q
		default:
			return elastichtap.Q6(db)
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "round\ttenant\tstate\tmethod\tresp (s)\tetl (s)\tfreshness\tOLTP MTPS\tworkers\tstolen")
	for r := 1; r <= *rounds; r++ {
		sys.Run(*txns)
		rate, _ := sys.Freshness()
		var rep elastichtap.QueryReport
		if forced != nil {
			rep, err = sys.QueryInStateContext(ctx, pick(), *forced)
		} else {
			rep, err = sys.QueryContext(ctx, pick())
		}
		if errors.Is(err, elastichtap.ErrCancelled) {
			tw.Flush()
			log.Fatalf("htapctl: round %d: deadline expired: %v", r, err)
		}
		if err != nil {
			log.Fatal(err)
		}
		// workers: pool goroutines that actually consumed morsels this
		// round; stolen: share of morsels pulled across sockets.
		stolen := 0.0
		if rep.Stats.Morsels > 0 {
			stolen = float64(rep.Stats.StolenMorsels) / float64(rep.Stats.Morsels)
		}
		fmt.Fprintf(tw, "%d\t%s\t%v\t%v\t%.3f\t%.3f\t%.4f\t%.3f\t%d\t%.0f%%\n",
			r, rep.Tenant, rep.State, rep.Method, rep.ResponseSeconds, rep.ETLSeconds,
			rate, rep.OLTPDuringTPS/1e6, rep.Stats.Workers, stolen*100)
	}
	tw.Flush()

	if *ckptDir != "" {
		seq, err := sys.CheckpointDB(elastichtap.DiskFS(), *ckptDir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwhole-database checkpoint %d written under %s (restore with -restore %s)\n",
			seq, *ckptDir, *ckptDir)
	}

	fmt.Println("\nfinal system metrics:")
	fmt.Print(sys.Metrics())
}

func parseState(s string) (elastichtap.State, error) {
	switch strings.ToUpper(strings.ReplaceAll(s, "_", "-")) {
	case "S1":
		return elastichtap.S1, nil
	case "S2":
		return elastichtap.S2, nil
	case "S3-IS", "S3IS":
		return elastichtap.S3IS, nil
	case "S3-NI", "S3NI":
		return elastichtap.S3NI, nil
	default:
		return 0, fmt.Errorf("htapctl: unknown state %q", s)
	}
}
