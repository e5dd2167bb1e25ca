package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// declared mirrors the parts of BENCHMARK.json the program must agree with.
type declared struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", d.Paths)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program runs %v", names, workloadNames())
	}
	var e2e, layers []metricDef
	for _, m := range d.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Bound})
	}
	for _, m := range d.PerLayer {
		layers = append(layers, metricDef{name: m.Name, unit: m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program emits %v", layers, perLayer)
	}
}

// smokeConfig is every workload's schedule cut to six rounds at SF 0.004,
// with the oracle on every second round and the probes shrunk to match.
func smokeConfig(t *testing.T) config {
	c := defaultConfig()
	c.sf, c.rounds, c.verifyEvery, c.setups, c.recoveries = 0.004, 6, 2, 1, 1
	c.probeN = 2000
	c.dir = t.TempDir()
	return c
}

func sameRounds(a, b []roundRec) bool {
	for i := range a {
		if i < len(b) && (a[i].class != b[i].class || a[i].state != b[i].state ||
			a[i].method != b[i].method || a[i].checksum != b[i].checksum) {
			return false
		}
	}
	return true
}

// TestWorkloads runs every workload end to end and traced. It asserts no
// timing: only that every declared metric is emitted, that every answer
// verifies (the traced pass against the facade pass included — a mismatch
// is a failed operation), and that fixed work really is fixed: the same
// seed gives the same states, result bits and exact counts twice.
func TestWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, sp := range specs {
		sp := sp
		if sp.txns > 200 {
			sp.txns = 200
		}
		t.Run(sp.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			e2e, err := runEndToEnd(ctx, sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.correct() {
				t.Errorf("end-to-end pass: %d of %d operations failed", e2e.failed, e2e.attempted)
			}
			for _, d := range endToEnd {
				if v, ok := e2e.metrics[d.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", d.name, v)
				}
			}

			first, err := runTraced(ctx, sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			second, err := runTraced(ctx, sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*runResult{first, second} {
				if !tr.correct() {
					t.Errorf("traced run: %d of %d operations failed", tr.failed, tr.attempted)
				}
				for _, d := range perLayer {
					if _, ok := tr.metrics[d.name]; !ok {
						t.Errorf("per-layer metric %s not emitted", d.name)
					}
				}
			}
			if !sameRounds(e2e.rounds, first.rounds) || !sameRounds(first.rounds, second.rounds) {
				t.Errorf("same seed, different states or result bits:\n%v\n%v\n%v", e2e.rounds, first.rounds, second.rounds)
			}
			for _, name := range []string{"core.s2_frac", "wal.bytes_per_txn", "recovery.replayed_txns",
				"rde.synced_rows_per_q", "rde.etl_bytes_per_q", "olap.morsels_per_q", "query.build_bytes_per_q"} {
				if first.metrics[name] != second.metrics[name] {
					t.Errorf("%s: %v then %v with the same seed", name, first.metrics[name], second.metrics[name])
				}
			}
			if sp.wal != (first.metrics["wal.bytes_per_txn"] > 0) || sp.wal != (first.metrics["recovery.replayed_txns"] > 0) {
				t.Errorf("wal metrics must be non-zero exactly on the durable workload: bytes/txn %v, replayed %v",
					first.metrics["wal.bytes_per_txn"], first.metrics["recovery.replayed_txns"])
			}

			cfg.seed++
			other, err := runEndToEnd(ctx, sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !other.correct() {
				t.Errorf("seed %d: %d of %d operations failed", cfg.seed, other.failed, other.attempted)
			}
		})
	}
}
