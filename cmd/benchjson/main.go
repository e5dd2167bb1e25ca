// Command benchjson converts `go test -bench` text output into a stable
// JSON document mapping each benchmark to its measured metrics, for CI to
// record as the repository's performance trajectory (BENCH_ci.json):
//
//	go test -run '^$' -bench . -benchmem . | benchjson > BENCH_ci.json
//
// Standard units parse into fixed fields (ns/op, B/op, allocs/op, MB/s);
// any other unit — including testing.B.ReportMetric custom metrics — lands
// in the metrics map verbatim. Input defaults to stdin, output to stdout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	// Pkg is the package whose run printed the line: the last "pkg:"
	// header above it. One input may hold several packages' runs.
	Pkg         string             `json:"pkg,omitempty"`
	N           int64              `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	MBPerSec    float64            `json:"mb_per_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON document benchjson emits. GapRatios holds the
// builder-vs-handcoded abstraction cost per query (builder ns/op over
// handcoded ns/op) for every BenchmarkQ<n>Builder/BenchmarkQ<n>Handcoded
// pair found in the input.
type Report struct {
	Goos       string            `json:"goos,omitempty"`
	Goarch     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]*Bench `json:"benchmarks"`
	// Recovery groups the durability-path benchmarks — WAL append and
	// replay, whole-database checkpointing, crash recovery — so the
	// trajectory of the recovery story reads as one unit.
	Recovery map[string]*Bench `json:"recovery,omitempty"`
	// Txn groups the storage-access and commit-path benchmarks — one
	// client's Payment and NewOrder and the cell Load/Store pair — the
	// engine-side view of bench/'s txn_per_s.
	Txn map[string]*Bench `json:"txn,omitempty"`
	// Columnar groups the twin-instance storage benchmarks — row and batch
	// appends into chunks the twins share, the first in-place update that
	// splits one, and the replica prime that lists them (B/op is what the
	// replicas copy) — the engine-side view of bench/'s setup_s and
	// live_b_per_row.
	Columnar map[string]*Bench `json:"columnar,omitempty"`
	// Admit holds the query-admission benchmark — switch and sync,
	// freshness measurement and delta-ETL over a fixed stale population —
	// the engine-side view of bench/'s core.admit_ms.
	Admit     map[string]*Bench  `json:"admit,omitempty"`
	GapRatios map[string]float64 `json:"gap_ratios,omitempty"`
}

// recoveryBench reports whether a benchmark belongs to the durability
// metric group.
func recoveryBench(name string) bool {
	n := baseName(name)
	return n == "BenchmarkCheckpointDB" || n == "BenchmarkRecovery" ||
		strings.HasPrefix(n, "BenchmarkWAL")
}

// txnBench reports whether a benchmark belongs to the commit-path group.
func txnBench(name string) bool {
	n := baseName(name)
	return strings.HasPrefix(n, "BenchmarkTxn") || n == "BenchmarkWordsLoadStore"
}

// columnarBench reports whether a benchmark belongs to the twin-storage
// group.
func columnarBench(name string) bool {
	n := baseName(name)
	return strings.HasPrefix(n, "BenchmarkAppendRows") || n == "BenchmarkFirstUpdateUnshare" || n == "BenchmarkPrimeReplicas"
}

// admitBench reports whether a benchmark belongs to the admission group.
func admitBench(name string) bool { return baseName(name) == "BenchmarkAdmit" }

// splitGroup moves the benchmarks member picks out of the flat map into
// one of the report's named groups.
func splitGroup(rep *Report, member func(name string) bool, group *map[string]*Bench) {
	for name, b := range rep.Benchmarks {
		if member(name) {
			if *group == nil {
				*group = map[string]*Bench{}
			}
			(*group)[name] = b
			delete(rep.Benchmarks, name)
		}
	}
}

// graphJoinQueries are the CH queries compiled through the n-way join
// graph (JoinGraph + greedy ordering). Their builder plans run several
// chained hash probes per row against hand-written map chains, so they
// carry their own abstraction-cost budget (-maxgapgraph) instead of the
// single-probe kernels' tighter -maxgap.
var graphJoinQueries = map[string]bool{"Q2": true, "Q5": true, "Q7": true}

// parse reads `go test -bench` output. Benchmark lines look like
//
//	BenchmarkQ6Builder-8   3   1009042 ns/op   2847.06 MB/s   276045 B/op   67 allocs/op
//
// with an arbitrary tail of "<value> <unit>" pairs. Header lines (goos,
// goarch, cpu) fill the report envelope and each "pkg:" header names the
// package of the benchmark lines below it; everything else is ignored.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: map[string]*Bench{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, hdr := range []struct {
			prefix string
			dst    *string
		}{
			{"goos: ", &rep.Goos},
			{"goarch: ", &rep.Goarch},
			{"pkg: ", &pkg},
			{"cpu: ", &rep.CPU},
		} {
			if strings.HasPrefix(line, hdr.prefix) {
				*hdr.dst = strings.TrimPrefix(line, hdr.prefix)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := &Bench{Pkg: pkg, N: n}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			case "MB/s":
				b.MBPerSec = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		if ok {
			rep.Benchmarks[fields[0]] = b
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// baseName strips a trailing -<GOMAXPROCS> suffix so Builder/Handcoded
// twins pair up whether or not the run set -cpu.
func baseName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// gapRatios pairs each BenchmarkQ<x>Builder with its
// BenchmarkQ<x>Handcoded twin, records the ns/op ratio both in the
// report's gap_ratios map and as a builder_vs_handcoded metric on the
// builder's entry, and returns the map.
func gapRatios(rep *Report) map[string]float64 {
	hand := map[string]*Bench{}
	build := map[string]*Bench{}
	for name, b := range rep.Benchmarks {
		n := strings.TrimPrefix(baseName(name), "Benchmark")
		if q, ok := strings.CutSuffix(n, "Handcoded"); ok {
			hand[q] = b
		} else if q, ok := strings.CutSuffix(n, "Builder"); ok {
			build[q] = b
		}
	}
	ratios := map[string]float64{}
	for q, hb := range hand {
		bb := build[q]
		if bb == nil || hb.NsPerOp <= 0 {
			continue
		}
		r := bb.NsPerOp / hb.NsPerOp
		ratios[q] = r
		if bb.Metrics == nil {
			bb.Metrics = map[string]float64{}
		}
		bb.Metrics["builder_vs_handcoded"] = r
	}
	return ratios
}

func main() {
	var (
		in          = flag.String("in", "", "bench output file (default stdin)")
		out         = flag.String("out", "", "JSON destination (default stdout)")
		maxGap      = flag.Float64("maxgap", 0, "fail when any builder-vs-handcoded ns/op ratio exceeds this (0 disables; graph-join queries use -maxgapgraph)")
		maxGapGraph = flag.Float64("maxgapgraph", 0, "builder-vs-handcoded gate for the graph-join queries Q2/Q5/Q7 (0 disables)")
	)
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	rep.GapRatios = gapRatios(rep)
	splitGroup(rep, recoveryBench, &rep.Recovery)
	splitGroup(rep, txnBench, &rep.Txn)
	splitGroup(rep, columnarBench, &rep.Columnar)
	splitGroup(rep, admitBench, &rep.Admit)
	var dst io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if c, ok := dst.(io.Closer); ok {
		if err := c.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
	// The gates run after the report is written: CI still records the
	// failing trajectory point it is rejecting.
	bad := false
	if *maxGap > 0 || *maxGapGraph > 0 {
		for q, r := range rep.GapRatios {
			gate := *maxGap
			if graphJoinQueries[q] {
				gate = *maxGapGraph
			}
			if gate > 0 && r > gate {
				fmt.Fprintf(os.Stderr, "benchjson: %s builder is %.2fx handcoded (gate %.2fx)\n", q, r, gate)
				bad = true
			}
		}
	}
	if bad {
		os.Exit(1)
	}
}
