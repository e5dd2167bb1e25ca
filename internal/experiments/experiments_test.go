package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"elastichtap/internal/core"
)

// Experiments run at tiny scale here; the benches and chbench exercise the
// full parameterizations. These tests pin the figure SHAPES the paper
// reports.

func tinyOpt() Options {
	return Options{SF: 0.005, EmulateSF: 300, Seed: 1}
}

func TestNewEnvPrimesReplicas(t *testing.T) {
	env, err := NewEnv(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	f := env.Sys.X.MeasureFreshness(env.Sys.OLTPE.Tables(), "orderline", 3)
	if f.Rate < 0.999 {
		t.Fatalf("fresh rate after prime = %v", f.Rate)
	}
	if env.TxnScale() <= 0 || env.TxnScale() >= 1 {
		t.Fatalf("txn scale = %v", env.TxnScale())
	}
}

func TestFigure3bAmortization(t *testing.T) {
	rows, err := Figure3b(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Shape: total transfer time shrinks as the batch grows; OLTP is flat
	// (isolated at the socket boundary).
	first, last := rows[0], rows[len(rows)-1]
	if last.DataTransferSecs >= first.DataTransferSecs {
		t.Fatalf("no amortization: batch1=%v batch16=%v",
			first.DataTransferSecs, last.DataTransferSecs)
	}
	for _, r := range rows {
		if r.OLTPTputMTPS < first.OLTPTputMTPS*0.99 {
			t.Fatalf("OLTP throughput not flat in S2: %+v", r)
		}
	}
}

func TestFigure4Shapes(t *testing.T) {
	rows, err := Figure4(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// Full remote is the worst strategy throughout.
		if r.FullRemoteSeconds < r.SplitSeconds || r.FullRemoteSeconds < r.S2Seconds {
			t.Fatalf("point %d: full remote not worst: %+v", i, r)
		}
		if i > 0 && r.FreshPct+1e-9 < rows[i-1].FreshPct {
			t.Fatalf("fresh %% not monotone at %d", i)
		}
	}
	// Split starts at or below S2 and crosses it as fresh data grows.
	if rows[0].SplitSeconds > rows[0].S2Seconds {
		t.Fatalf("split should start below S2: %+v", rows[0])
	}
	crossed := false
	for _, r := range rows {
		if r.SplitSeconds > r.S2Seconds {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("split never crossed S2 within the sweep")
	}
}

func TestFigure5AdaptiveBeatsStatic(t *testing.T) {
	opt := tinyOpt()
	opt.EmulateSF = 30
	series, err := Figure5(opt, 30, []Schedule{SchedS3IS, SchedAdaptiveIS})
	if err != nil {
		t.Fatal(err)
	}
	gap := Fig5Gap(series, SchedS3IS, SchedAdaptiveIS)
	if gap < -5 {
		t.Fatalf("adaptive much worse than static: gap %.1f%%", gap)
	}
	// Sequence times grow as data accumulates.
	pts := series[0].Points
	if pts[len(pts)-1].Seconds <= pts[0].Seconds {
		t.Fatal("static sequence time did not grow with inserts")
	}
}

func TestFigure5UnknownSchedule(t *testing.T) {
	if _, err := Figure5(tinyOpt(), 1, []Schedule{"bogus"}); err == nil {
		t.Fatal("unknown schedule accepted")
	}
}

func TestFigure1Shapes(t *testing.T) {
	rows, err := Figure1(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		etl, cow := rows[i], rows[i+1]
		if etl.Mode != "ETL" || cow.Mode != "CoW" {
			t.Fatalf("row order wrong at %d", i)
		}
		// CoW never transfers; ETL always does.
		if cow.DataTransferSeconds != 0 {
			t.Fatal("CoW charged a transfer")
		}
		if etl.DataTransferSeconds <= 0 {
			t.Fatal("ETL did not pay a transfer")
		}
		// CoW hurts the OLTP engine; ETL leaves it at full isolation.
		if cow.OLTPTputMTPS >= etl.OLTPTputMTPS {
			t.Fatalf("CoW OLTP should be below ETL OLTP: %+v vs %+v", cow, etl)
		}
	}
	// ETL's transfer amortizes with snapshot frequency.
	if rows[8].DataTransferSeconds >= rows[0].DataTransferSeconds {
		t.Fatalf("ETL transfer did not amortize: %v -> %v",
			rows[0].DataTransferSeconds, rows[8].DataTransferSeconds)
	}
}

func TestTailLatencyOrdering(t *testing.T) {
	rows, err := TailLatency(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	byState := map[string]TailRow{}
	for _, r := range rows {
		byState[r.State] = r
	}
	// §5.2: S2/S3-IS smallest, S1 the worst case.
	if byState["S1"].P99Micros <= byState["S2"].P99Micros {
		t.Fatalf("S1 tail (%v) not above S2 (%v)",
			byState["S1"].P99Micros, byState["S2"].P99Micros)
	}
	if byState["S1"].P99Micros <= byState["S3-IS"].P99Micros {
		t.Fatal("S1 tail not the worst")
	}
}

func TestSyncClaim(t *testing.T) {
	row := SyncClaim(100_000, 1_800_000_000)
	if row.CopiedRows != 100_000 {
		t.Fatalf("copied = %d", row.CopiedRows)
	}
	if row.ModelSeconds <= 0 || row.MeasuredSeconds <= 0 {
		t.Fatalf("non-positive timings: %+v", row)
	}
	// The paper-scale model claim: ~10ms per million modified tuples.
	full := SyncClaim(1_000_000, 1_800_000_000)
	if full.ModelSeconds < 0.005 || full.ModelSeconds > 0.05 {
		t.Fatalf("model sync = %v, want ~0.01", full.ModelSeconds)
	}
}

func TestTable1Rendering(t *testing.T) {
	if len(Table1()) != 6 {
		t.Fatalf("Table1 rows = %d", len(Table1()))
	}
	var buf bytes.Buffer
	RenderTable1(&buf)
	out := buf.String()
	for _, want := range []string{"HyPer", "BatchDB", "SAP HANA", "S2", "S3-IS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	RenderFig1(&buf, []Fig1Row{{Mode: "ETL", QueriesPerSeq: 1}})
	RenderFig3a(&buf, []Fig3aRow{{CPUsInterchanged: 2}}, "x")
	RenderFig3b(&buf, []Fig3bRow{{BatchSize: 4}})
	RenderFig4(&buf, []Fig4Row{{FreshPct: 1}})
	RenderFig5(&buf, []Fig5Series{{Schedule: SchedS1, Points: []Fig5Point{{Sequence: 1}}}}, 1)
	RenderSyncClaim(&buf, SyncClaimRow{ModifiedRows: 1, TotalRows: 2})
	RenderConvergence(&buf, []ConvergenceRow{{Sequence: 1}})
	RenderTail(&buf, []TailRow{{State: "S1"}})
	Banner(&buf, "x")
	if buf.Len() == 0 {
		t.Fatal("renderers produced nothing")
	}
}

// TestMultiTenantScenario checks the serving scenario's invariants at a
// smoke scale: the zero-quota tenant completes nothing and rejects
// everything it submitted, the weighted tenants complete everything they
// submitted, and the morsel shares sum to 1.
func TestMultiTenantScenario(t *testing.T) {
	rows, err := MultiTenant(tinyOpt(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("tenant rows = %d, want 4", len(rows))
	}
	var share float64
	var completed int
	for _, r := range rows {
		share += r.MorselShare
		completed += r.Completed
		if r.Tenant == "throttled" {
			if r.Completed != 0 || r.Rejected != r.Submitted {
				t.Fatalf("throttled tenant ran: %+v", r)
			}
			continue
		}
		if r.Completed != r.Submitted || r.Rejected != 0 {
			t.Fatalf("weighted tenant %s lost queries: %+v", r.Tenant, r)
		}
		if r.Completed > 0 && (r.P50Ms <= 0 || r.P99Ms < r.P50Ms) {
			t.Fatalf("tenant %s percentiles inconsistent: %+v", r.Tenant, r)
		}
	}
	if completed == 0 {
		t.Fatal("no queries completed")
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("morsel shares sum to %v, want 1", share)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	env, err := NewEnv(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	env.Sys.InjectTransactions(20)
	if _, _, err := env.Sys.RunQueryContext(context.Background(), env.Q6(), core.QueryOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	m := env.Sys.Metrics()
	if m.Commits < 20 {
		t.Fatalf("commits = %d", m.Commits)
	}
	if m.Tables != 12 {
		t.Fatalf("tables = %d", m.Tables)
	}
	if m.TotalRows == 0 || m.Switches == 0 {
		t.Fatalf("metrics empty: %+v", m)
	}
	if m.OLTPCores+m.OLAPCores != env.Sys.Cfg.Topology.Sockets*env.Sys.Cfg.Topology.CoresPerSocket {
		t.Fatalf("core accounting off: %d+%d", m.OLTPCores, m.OLAPCores)
	}
	if !strings.Contains(m.String(), "freshness rate") {
		t.Fatal("snapshot rendering incomplete")
	}
}
