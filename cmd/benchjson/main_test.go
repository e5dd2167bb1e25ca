package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: elastichtap
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkQ6Handcoded  	       3	    409628 ns/op	7013.19 MB/s	    2426 B/op	      39 allocs/op
BenchmarkQ6Builder    	       3	   1009042 ns/op	2847.06 MB/s	  276045 B/op	      67 allocs/op
BenchmarkSyncClaim-8  	       5	   1536000 ns/op	        10.2 measured-sync-ms	        10.0 model-sync-ms
PASS
ok  	elastichtap	3.175s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("envelope = %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks["BenchmarkQ6Builder"]
	if b == nil {
		t.Fatal("Q6Builder missing")
	}
	if b.Pkg != "elastichtap" || b.N != 3 || b.NsPerOp != 1009042 || b.BytesPerOp != 276045 || b.AllocsPerOp != 67 || b.MBPerSec != 2847.06 {
		t.Fatalf("Q6Builder = %+v", b)
	}
	s := rep.Benchmarks["BenchmarkSyncClaim-8"]
	if s == nil || s.Metrics["measured-sync-ms"] != 10.2 || s.Metrics["model-sync-ms"] != 10.0 {
		t.Fatalf("custom metrics = %+v", s)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rep, err := parse(strings.NewReader("hello\nBenchmarkBad abc def\nok pkg 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from garbage", len(rep.Benchmarks))
	}
}

func TestGapRatios(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	ratios := gapRatios(rep)
	want := 1009042.0 / 409628.0
	if got := ratios["Q6"]; got != want {
		t.Fatalf("Q6 ratio = %v, want %v", got, want)
	}
	if got := rep.Benchmarks["BenchmarkQ6Builder"].Metrics["builder_vs_handcoded"]; got != want {
		t.Fatalf("builder_vs_handcoded metric = %v, want %v", got, want)
	}
	if _, ok := ratios["SyncClaim"]; ok {
		t.Fatal("unpaired benchmark produced a ratio")
	}
}

// TestGraphJoinQueriesGateSeparately: the graph-join queries carry their
// own gap budget, so they must be in gap_ratios (tracked) but flagged as
// graph queries for gating.
func TestGraphJoinQueriesGateSeparately(t *testing.T) {
	const out = `BenchmarkQ7Handcoded  5   100 ns/op
BenchmarkQ7Builder    5   160 ns/op
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	ratios := gapRatios(rep)
	if got := ratios["Q7"]; got != 1.6 {
		t.Fatalf("Q7 gap ratio = %v, want 1.6", got)
	}
	for _, q := range []string{"Q2", "Q5", "Q7"} {
		if !graphJoinQueries[q] {
			t.Fatalf("%s missing from graphJoinQueries", q)
		}
	}
	if graphJoinQueries["Q6"] {
		t.Fatal("Q6 is a single-probe kernel, not a graph query")
	}
}

// TestGapRatiosStripsCPUSuffix: twins pair up when -cpu appends a
// GOMAXPROCS suffix to the names.
func TestGapRatiosStripsCPUSuffix(t *testing.T) {
	const out = `BenchmarkQ1Handcoded-8   10   200 ns/op
BenchmarkQ1Builder-8     10   220 ns/op
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	ratios := gapRatios(rep)
	if got := ratios["Q1"]; got != 1.1 {
		t.Fatalf("Q1 ratio = %v, want 1.1", got)
	}
}

// TestPackageRecordedPerBenchmark: CI benches two packages into one file,
// so each benchmark carries the package of the run that printed it — not
// whichever "pkg:" header happened to come last.
func TestPackageRecordedPerBenchmark(t *testing.T) {
	rep, err := parse(strings.NewReader(`goos: linux
pkg: elastichtap
BenchmarkAdmit-2   3   1893941 ns/op   4062 freshness-ns   1846352 B/op   3035 allocs/op
BenchmarkQ6Builder-2   3   1009042 ns/op
PASS
ok  	elastichtap	3.1s
goos: linux
pkg: elastichtap/internal/wal
BenchmarkWALAppend-2   3   1000 ns/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"BenchmarkAdmit-2":     "elastichtap",
		"BenchmarkQ6Builder-2": "elastichtap",
		"BenchmarkWALAppend-2": "elastichtap/internal/wal",
	} {
		if b := rep.Benchmarks[name]; b == nil || b.Pkg != want {
			t.Fatalf("%s = %+v, want package %q", name, b, want)
		}
	}
}

// TestGroupsSplitOutOfTheFlatMap: durability, commit-path, twin-storage and
// admission benchmarks leave the flat map for their named groups, sub-benchmarks and
// -cpu suffixes included; everything else stays.
func TestGroupsSplitOutOfTheFlatMap(t *testing.T) {
	rep, err := parse(strings.NewReader(`BenchmarkQ6Builder-2   3   1009042 ns/op
BenchmarkTxnPayment-2   3   2932812 ns/op   1466 ns/txn   128725 B/op   2000 allocs/op
BenchmarkWordsLoadStore-2   3   918304 ns/op   14.00 ns/cell
BenchmarkAppendRows/rows=8192-2   3   1819222 ns/op   42.31 ns/row
BenchmarkFirstUpdateUnshare-2   3   9605416 ns/op   32168 ns/unshare   174.2 ns/update
BenchmarkPrimeReplicas-2   3   4127013 ns/op   210344 B/op   1012 allocs/op
BenchmarkWALAppend-2   3   1000 ns/op
BenchmarkRecovery   3   5000 ns/op
BenchmarkAdmit-2   3   1893941 ns/op   4062 freshness-ns   1846352 B/op   3035 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	splitGroup(rep, recoveryBench, &rep.Recovery)
	splitGroup(rep, txnBench, &rep.Txn)
	splitGroup(rep, columnarBench, &rep.Columnar)
	splitGroup(rep, admitBench, &rep.Admit)
	if len(rep.Benchmarks) != 1 || rep.Benchmarks["BenchmarkQ6Builder-2"] == nil {
		t.Fatalf("flat map = %v", rep.Benchmarks)
	}
	if len(rep.Recovery) != 2 || len(rep.Txn) != 2 || len(rep.Columnar) != 3 {
		t.Fatalf("recovery = %v, txn = %v, columnar = %v", rep.Recovery, rep.Txn, rep.Columnar)
	}
	if b := rep.Columnar["BenchmarkAppendRows/rows=8192-2"]; b == nil || b.Metrics["ns/row"] != 42.31 {
		t.Fatalf("append sub-benchmark = %+v", b)
	}
	if b := rep.Columnar["BenchmarkFirstUpdateUnshare-2"]; b == nil || b.Metrics["ns/unshare"] != 32168 {
		t.Fatalf("unshare benchmark = %+v", b)
	}
	if b := rep.Columnar["BenchmarkPrimeReplicas-2"]; b == nil || b.BytesPerOp != 210344 {
		t.Fatalf("prime benchmark = %+v", b)
	}
	if b := rep.Admit["BenchmarkAdmit-2"]; len(rep.Admit) != 1 || b == nil || b.Metrics["freshness-ns"] != 4062 {
		t.Fatalf("admit = %v", rep.Admit)
	}
}
