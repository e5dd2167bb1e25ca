// Command bench is the repository's wall-clock HTAP benchmark: four seeded,
// fixed-work CH-benCHmark workloads driven through the public facade by one
// closed-loop client, nine end-to-end metrics per workload, every answer
// checked, and a traced pass that times the calls into each layer from
// this package's own files. See README.md for the design and BENCHMARK.json
// for the declared metric names.
//
//	bash bench/run.sh --workload fresh-scan --seed 7 --seconds 10 --trace 0
//
// prints a human-readable table on stderr and, as the last line of stdout,
// one JSON object {"correct","attempted","failed","metrics"}. --trace 0
// reports the end-to-end metrics of the untraced pass, --trace 1 the
// per-layer metrics of the traced pass.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	cfg := defaultConfig()
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for the database, the transaction mix and the query arguments")
	flag.IntVar(&cfg.seconds, "seconds", cfg.seconds, "sizes the fixed schedule: rounds are chosen so the timed section takes about this long on the reference sandbox")
	flag.Float64Var(&cfg.sf, "sf", cfg.sf, "CH-benCHmark scale factor")
	flag.StringVar(&cfg.dir, "dir", cfg.dir, "scratch directory for durability data and trace files")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the selection this many times and print the spread of every end-to-end metric")
	check := flag.Bool("check", false, "with -repeat: exit non-zero when a spread exceeds the metric's bound")
	flag.Parse()

	// Two runnable threads at most: the driver (or one OLTP-side helper in
	// the contention probe) and the OLAP pool.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}

	var selected []spec
	if *workload == "all" {
		selected = specs
	} else if sp, ok := specByName(*workload); ok {
		selected = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1, -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	ctx := context.Background()
	if *repeat > 1 {
		os.Exit(noiseTest(ctx, selected, cfg, *repeat, *check))
	}
	ok := true
	for _, sp := range selected {
		run, defs := runEndToEnd, endToEnd
		if *trace == 1 {
			run, defs = runTraced, perLayer
		}
		res, err := run(ctx, sp, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		printTable(os.Stderr, sp, res, defs)
		if err := printJSON(os.Stdout, res, defs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		ok = ok && res.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// metricDef declares one reported metric; the lists must match
// BENCHMARK.json name for name (bench_test.go checks). bound is the share
// of the median an end-to-end metric may worsen by, and the spread the
// noise self-test allows it; per-layer metrics have none.
type metricDef struct {
	name, unit string
	bound      float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"query_p50_ms", "ms", 0.25},
	{"query_mean_ms", "ms", 0.25},
	{"query_slowest_p50_ms", "ms", 0.25},
	{"txn_per_s", "1/s", 0.20},
	{"txn_p50_us", "us", 0.20},
	{"txn_p99_us", "us", 0.25},
	{"live_b_per_row", "B", 0.02},
	{"recovery_s", "s", 0.20},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the contract's result line: exactly the declared
// metrics of the selected mode, by name, with their units.
func printJSON(w *os.File, res *runResult, defs []metricDef) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.workload, d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func printTable(w *os.File, sp spec, res *runResult, defs []metricDef) {
	fmt.Fprintf(w, "\n== %s  attempted=%d failed=%d correct=%v\n   %s\n", sp.name, res.attempted, res.failed, res.correct(), sp.why)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.name, res.metrics[d.name], d.unit)
	}
}
