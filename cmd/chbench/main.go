// Command chbench regenerates the paper's tables and figures as text.
//
// Usage:
//
//	chbench -fig all
//	chbench -fig 1|3a|3b|3c|4|5a|5b|sync|convergence -sf 0.01 -seed 42
//	chbench -table 1
//	chbench -fig 5a -sequences 100
//	chbench -fig all -timeout 10m
//
// Output is one text table per artifact; internal/experiments'
// tests pin the expected shapes. -timeout bounds the whole
// run: an expired deadline abandons the in-flight artifact and exits
// non-zero instead of hanging a CI job.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"elastichtap/internal/experiments"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure to regenerate: 1, 3a, 3b, 3c, 4, 5a, 5b, alpha, tail, tenants, sync, convergence, all")
		table     = flag.Int("table", 0, "table to regenerate (1)")
		sf        = flag.Float64("sf", 0.01, "loaded scale factor")
		seed      = flag.Int64("seed", 42, "generator seed")
		sequences = flag.Int("sequences", 100, "Figure 5 sequence count")
		alpha     = flag.Float64("alpha", 0, "override scheduler α (0 = default)")
		timeout   = flag.Duration("timeout", 0, "deadline for the whole run (0 = none)")
		mtqueries = flag.Int("mtqueries", 240, "multi-tenant scenario arrival count")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *table == 1 {
		experiments.Banner(os.Stdout, "Table 1: HTAP design classification")
		experiments.RenderTable1(os.Stdout)
		return
	}
	if *fig == "" {
		flag.Usage()
		os.Exit(2)
	}
	opt := experiments.Options{SF: *sf, Seed: *seed, Alpha: *alpha}
	run := func(name string) {
		if err := runFigContext(ctx, name, opt, *sequences, *mtqueries); err != nil {
			fmt.Fprintf(os.Stderr, "chbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *fig == "all" {
		for _, name := range []string{"1", "3a", "3b", "3c", "4", "5a", "alpha", "tail", "tenants", "sync", "convergence"} {
			run(name)
		}
		experiments.Banner(os.Stdout, "Table 1: HTAP design classification")
		experiments.RenderTable1(os.Stdout)
		return
	}
	run(*fig)
}

// runFigContext bounds one artifact's generation by the context: the
// figure runs in its own goroutine and an expired deadline abandons the
// wait. The experiment goroutine is left to the process teardown — the
// figure drivers are synchronous sweeps with no external effects, so
// exiting under a deadline is safe.
func runFigContext(ctx context.Context, name string, opt experiments.Options, sequences, mtQueries int) error {
	if ctx.Done() == nil {
		return runFig(name, opt, sequences, mtQueries)
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- runFig(name, opt, sequences, mtQueries) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("abandoned after %v: %w", time.Since(start).Round(time.Millisecond), ctx.Err())
	}
}

func runFig(name string, opt experiments.Options, sequences, mtQueries int) error {
	switch name {
	case "1":
		experiments.Banner(os.Stdout, "Figure 1: HTAP with ETL and CoW (4-socket server)")
		rows, err := experiments.Figure1(opt)
		if err != nil {
			return err
		}
		experiments.RenderFig1(os.Stdout, rows)
	case "3a":
		experiments.Banner(os.Stdout, "Figure 3(a): S1 sensitivity — CPUs interchanged")
		rows, err := experiments.Figure3a(opt)
		if err != nil {
			return err
		}
		experiments.RenderFig3a(os.Stdout, rows, "# CPUs interchanged")
	case "3b":
		experiments.Banner(os.Stdout, "Figure 3(b): S2 sensitivity — batch size")
		rows, err := experiments.Figure3b(opt)
		if err != nil {
			return err
		}
		experiments.RenderFig3b(os.Stdout, rows)
	case "3c":
		experiments.Banner(os.Stdout, "Figure 3(c): S3-NI sensitivity — OLTP CPUs to OLAP")
		rows, err := experiments.Figure3c(opt)
		if err != nil {
			return err
		}
		experiments.RenderFig3a(os.Stdout, rows, "# OLTP CPUs to OLAP")
	case "4":
		experiments.Banner(os.Stdout, "Figure 4: OLAP response time vs data freshness")
		rows, err := experiments.Figure4(opt)
		if err != nil {
			return err
		}
		experiments.RenderFig4(os.Stdout, rows)
	case "5a", "5b":
		experiments.Banner(os.Stdout, "Figure 5: HTAP performance under different scheduling states")
		series, err := experiments.Figure5(opt, sequences, nil)
		if err != nil {
			return err
		}
		experiments.RenderFig5(os.Stdout, series, sequences/10)
		fmt.Printf("\nAdaptive-S3-NI vs S3-IS cumulative gap: %.1f%%\n",
			experiments.Fig5Gap(series, experiments.SchedS3IS, experiments.SchedAdaptiveNI))
		fmt.Printf("Adaptive-S3-IS vs S3-IS cumulative gap: %.1f%%\n",
			experiments.Fig5Gap(series, experiments.SchedS3IS, experiments.SchedAdaptiveIS))
	case "alpha":
		experiments.Banner(os.Stdout, "Ablation: ETL sensitivity α sweep (Adaptive-S3-NI)")
		rows, err := experiments.AlphaSweep(opt, sequences/2, nil)
		if err != nil {
			return err
		}
		experiments.RenderAlpha(os.Stdout, rows)
	case "tail":
		experiments.Banner(os.Stdout, "§5.2 claim: OLTP tail latency by state (S1 worst)")
		rows, err := experiments.TailLatency(opt)
		if err != nil {
			return err
		}
		experiments.RenderTail(os.Stdout, rows)
	case "tenants":
		experiments.Banner(os.Stdout, "Multi-tenant serving: weighted fair shares and latency tails")
		rows, err := experiments.MultiTenant(opt, mtQueries)
		if err != nil {
			return err
		}
		experiments.RenderTenants(os.Stdout, rows)
	case "sync":
		experiments.Banner(os.Stdout, "§3.4 claim: instance synchronization cost")
		experiments.RenderSyncClaim(os.Stdout, experiments.SyncClaim(0, 0))
	case "convergence":
		experiments.Banner(os.Stdout, "§5.3 claim: adaptive gap at 100/200/250/300 sequences")
		rows, err := experiments.Convergence(opt, nil)
		if err != nil {
			return err
		}
		experiments.RenderConvergence(os.Stdout, rows)
	default:
		return fmt.Errorf("unknown figure %q", name)
	}
	return nil
}
