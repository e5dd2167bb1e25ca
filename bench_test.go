// Package elastichtap's benchmark suite regenerates every table and figure
// of the paper's evaluation (README "Reproduction harness"). Each
// benchmark runs the corresponding experiment once per iteration and
// reports its headline quantity as custom metrics, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction harness. The chbench command prints the full
// row sets.
package elastichtap

import (
	"context"
	"testing"
	"time"

	"elastichtap/internal/ch"
	"elastichtap/internal/ch/golden"
	"elastichtap/internal/columnar"
	"elastichtap/internal/core"
	"elastichtap/internal/experiments"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
	"elastichtap/query"
)

func benchOpt() experiments.Options {
	return experiments.Options{SF: 0.01, Seed: 42}
}

// BenchmarkFigure1 regenerates Figure 1 (ETL vs CoW motivation).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: per-query ETL cost amortizes; CoW hurts OLTP.
		first, last := rows[0], rows[len(rows)-1]
		b.ReportMetric(first.DataTransferSeconds, "etl-transfer-b1-s")
		b.ReportMetric(last.DataTransferSeconds, "etl-transfer-b16-s")
		cow := rows[1]
		b.ReportMetric(cow.OLTPTputMTPS, "cow-oltp-mtps")
	}
}

// BenchmarkFigure3a regenerates Figure 3(a) (S1 sensitivity).
func BenchmarkFigure3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3a(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0], rows[len(rows)-1]
		b.ReportMetric(100*(1-last.OLTPOnlyMTPS/first.OLTPOnlyMTPS), "oltp-only-drop-pct")
		b.ReportMetric(100*(1-last.OLTPWithOLAPMTPS/first.OLTPOnlyMTPS), "oltp-with-olap-drop-pct")
		b.ReportMetric(first.OLAPRespSeconds/rows[2].OLAPRespSeconds, "olap-speedup-at-4cpus")
	}
}

// BenchmarkFigure3b regenerates Figure 3(b) (S2 batch amortization).
func BenchmarkFigure3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3b(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].DataTransferSecs, "transfer-batch1-s")
		b.ReportMetric(rows[len(rows)-1].DataTransferSecs, "transfer-batch16-s")
		b.ReportMetric(rows[0].OLTPTputMTPS, "oltp-mtps")
	}
}

// BenchmarkFigure3c regenerates Figure 3(c) (S3-NI sensitivity).
func BenchmarkFigure3c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3c(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		first := rows[0]
		best := first.OLAPRespSeconds
		for _, r := range rows {
			if r.OLAPRespSeconds < best {
				best = r.OLAPRespSeconds
			}
		}
		b.ReportMetric(100*(1-best/first.OLAPRespSeconds), "olap-improvement-pct")
	}
}

// BenchmarkFigure4 regenerates Figure 4 (response time vs freshness).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: the split/S2 crossover position (fresh %).
		cross := -1.0
		for _, r := range rows {
			if r.SplitSeconds > r.S2Seconds {
				cross = r.FreshPct
				break
			}
		}
		b.ReportMetric(cross, "split-s2-crossover-fresh-pct")
		b.ReportMetric(rows[0].FullRemoteSeconds/rows[0].S2Seconds, "full-remote-vs-s2-x")
	}
}

// fig5BenchSequences keeps the benchmark variant of Figure 5 affordable;
// chbench runs the full 100 (or more) sequences.
const fig5BenchSequences = 80

// BenchmarkFigure5a regenerates Figure 5(a) (OLAP adaptivity).
func BenchmarkFigure5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure5(benchOpt(), fig5BenchSequences, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.Fig5Gap(series, experiments.SchedS3IS, experiments.SchedAdaptiveNI),
			"adaptive-ni-vs-s3is-gap-pct")
		b.ReportMetric(experiments.Fig5Gap(series, experiments.SchedS3IS, experiments.SchedAdaptiveIS),
			"adaptive-is-vs-s3is-gap-pct")
	}
}

// BenchmarkFigure5b regenerates Figure 5(b) (OLTP throughput under the
// same schedules).
func BenchmarkFigure5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure5(benchOpt(), fig5BenchSequences,
			[]experiments.Schedule{experiments.SchedS2, experiments.SchedS3NI})
		if err != nil {
			b.Fatal(err)
		}
		last := func(s experiments.Fig5Series) float64 {
			return s.Points[len(s.Points)-1].OLTPMTPS
		}
		b.ReportMetric(last(series[0]), "s2-oltp-mtps")
		b.ReportMetric(last(series[1]), "s3ni-oltp-mtps")
	}
}

// BenchmarkSyncClaim regenerates the §3.4 ~10ms sync claim.
func BenchmarkSyncClaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := experiments.SyncClaim(1_000_000, 1_800_000_000)
		b.ReportMetric(row.ModelSeconds*1e3, "model-sync-ms")
		b.ReportMetric(row.MeasuredSeconds*1e3, "measured-sync-ms")
	}
}

// BenchmarkConvergence regenerates the §5.3 widening-gap claim at a
// reduced horizon (chbench -fig convergence runs the full 300).
func BenchmarkConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Convergence(benchOpt(), []int{50, 100})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].GapPct, "gap-at-100-pct")
	}
}

// --- Ablation benches ---

// BenchmarkAblationAlpha sweeps the ETL sensitivity α: smaller α must ETL
// more eagerly (more S2 decisions).
func BenchmarkAblationAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var etls [2]int
		for k, alpha := range []float64{0.3, 0.9} {
			opt := benchOpt()
			opt.Alpha = alpha
			opt.Items = 30000
			opt.PaymentPct = 30
			series, err := experiments.Figure5(opt, 20,
				[]experiments.Schedule{experiments.SchedAdaptiveNI})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range series[0].Points {
				etls[k] += p.ETLs
			}
		}
		b.ReportMetric(float64(etls[0]), "etls-alpha-0.3")
		b.ReportMetric(float64(etls[1]), "etls-alpha-0.9")
	}
}

// BenchmarkAblationSplitAccess compares split access against full-remote
// in S3-IS on the same fresh state (Figure 4's first point, isolated).
func BenchmarkAblationSplitAccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FullRemoteSeconds/rows[0].SplitSeconds, "full-remote-vs-split-x")
	}
}

// BenchmarkAblationTwinVsCow isolates the storage-design ablation from
// Figure 1: per-query cost and OLTP cost of each snapshotting mechanism at
// snapshot-per-query frequency.
func BenchmarkAblationTwinVsCow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		etl, cow := rows[0], rows[1]
		b.ReportMetric((etl.QueryExecSeconds+etl.DataTransferSeconds)/cow.QueryExecSeconds, "etl-vs-cow-query-x")
		b.ReportMetric(etl.OLTPTputMTPS/cow.OLTPTputMTPS, "etl-vs-cow-oltp-x")
	}
}

// BenchmarkAblationLockPolicy compares wait-die retries against a
// hypothetical no-retry policy under moderate contention: the sticky
// priority must keep abandonment at zero.
func BenchmarkAblationLockPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := oltp.NewEngine()
		db := ch.Load(e, ch.TinySizing(), 1)
		mix := ch.NewMix(db, 50, 7)
		e.Workers().SetWorkload(mix)
		e.Workers().ExecuteBatch(2000, 8)
		b.ReportMetric(float64(e.Workers().Retried()), "wait-die-retries")
		b.ReportMetric(float64(e.Workers().Failed()), "abandoned-txns")
	}
}

// BenchmarkNewOrderThroughput measures the real (host wall-clock)
// transaction rate of the OLTP engine, as a sanity anchor for the model.
func BenchmarkNewOrderThroughput(b *testing.B) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.01), 1)
	mix := ch.NewMix(db, 0, 3)
	e.Workers().SetWorkload(mix)
	b.ResetTimer()
	e.Workers().ExecuteBatch(b.N, 8)
}

// txnsPerOp is how many transactions one iteration of the BenchmarkTxn*
// pair commits: CI records three iterations (-benchtime 3x), so the unit of
// work has to be large enough to mean something at that count. The per-
// transaction figures are reported as ns/txn, B/txn and allocs/txn.
const txnsPerOp = 2000

// benchTxn commits CH transactions of one kind on one client through
// RunWithRetry, with no WAL: the commit path the bench/ workloads time.
func benchTxn(b *testing.B, paymentPct int) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.01), 1)
	mix := ch.NewMix(db, paymentPct, 3)
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := e.Manager().RunWithRetry(0, mix.Next(0)); err != nil {
				b.Fatal(err)
			}
		}
	}
	run(txnsPerOp) // buffers grown, the Txn pooled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(txnsPerOp)
	}
	perTxn := float64(b.N) * txnsPerOp
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perTxn, "ns/txn")
}

// BenchmarkTxnPayment: three record locks, five in-place cells, one insert.
func BenchmarkTxnPayment(b *testing.B) { benchTxn(b, 100) }

// BenchmarkTxnNewOrder: about eleven record locks and twelve inserted rows.
func BenchmarkTxnNewOrder(b *testing.B) { benchTxn(b, 0) }

// BenchmarkWordsLoadStore is the cell access path alone: one Store and one
// Load per cell over four chunks of a column, ns/cell.
func BenchmarkWordsLoadStore(b *testing.B) {
	const cells = 4 * columnar.ChunkSize
	tab := columnar.NewTable(columnar.Schema{Name: "w", Columns: []columnar.ColumnDef{
		{Name: "v", Type: columnar.Int64},
	}}, cells)
	w := tab.Active().Col(0)
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for r := int64(0); r < cells; r++ {
			w.Store(r, r)
			sum += w.Load(r)
		}
	}
	if want := int64(b.N) * cells * (cells - 1) / 2; sum != want {
		b.Fatalf("sum = %d, want %d", sum, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*cells), "ns/cell")
}

// BenchmarkQ6Execution measures the real scan rate of the OLAP engine.
func BenchmarkQ6Execution(b *testing.B) {
	sys, err := core.NewSystem(core.DefaultSystemConfig())
	if err != nil {
		b.Fatal(err)
	}
	db := ch.Load(sys.OLTPE, ch.SizingForScale(0.02), 1)
	sys.PrimeReplicas()
	q := db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.RunQueryContext(context.Background(), q, core.QueryOptions{
			ForceState: core.ForcedState(core.S2),
		}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(db.OrderLine.Table().Rows() * 3 * 8)
}

// benchGoldenSetup loads a database and a direct single-part source over
// the OrderLine active instance for kernel-level comparisons.
func benchGoldenSetup(b *testing.B, workers int) (*ch.DB, *olap.Engine, olap.Source) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.02), 1)
	tab := db.OrderLine.Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "bench",
	}}}
	eng := olap.NewEngine(1)
	eng.SetPlacement(placementOf(workers))
	return db, eng, src
}

// BenchmarkQ6Handcoded and BenchmarkQ6Builder compare the hand-coded Q6
// kernel against the builder-compiled plan on the same engine and source:
// the abstraction cost of the generic filter/aggregate kernels.
func BenchmarkQ6Handcoded(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := &golden.Q6{DB: db}
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ6Builder is the builder-compiled counterpart of
// BenchmarkQ6Handcoded.
func BenchmarkQ6Builder(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := stamped(b, db, "Q6", ch.Q6Args(0, 0, 0, 0))
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ6Narrow is BenchmarkQ6Builder at a quantity bracket the
// benchmark workloads draw: 1–5 over quantities uniform in 1–10 passes
// about half the rows, at random, where BenchmarkQ6Builder's default
// bracket passes every row. The choice of Q6's kernel loop rests on this
// case: a per-row branch mispredicts on it and a branch-free filter does
// not.
func BenchmarkQ6Narrow(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := stamped(b, db, "Q6", ch.Q6Args(0, 0, 1, 5))
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ1Builder exercises the generic group-by kernel (compare with
// BenchmarkQ1Handcoded).
func BenchmarkQ1Builder(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := stamped(b, db, "Q1", ch.Q1Args(0))
	b.SetBytes(src.Rows() * 4 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ1Handcoded is the golden-reference counterpart.
func BenchmarkQ1Handcoded(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := &golden.Q1{DB: db}
	b.SetBytes(src.Rows() * 4 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ19Handcoded and BenchmarkQ19Builder compare the semi-join
// probe kernels: the hand-coded twin probes a hash set of the qualifying
// items, the builder a dense item side it indexes by i_id.
func BenchmarkQ19Handcoded(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := &golden.Q19{DB: db}
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ19Builder is the builder-compiled counterpart.
func BenchmarkQ19Builder(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := stamped(b, db, "Q19", ch.Q19Args(0, 0, 0, 0))
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ19Narrow is BenchmarkQ19Builder at brackets the benchmark
// workloads draw: prices 10–70 of 1–100 keep about 60 % of the items, at
// random over i_id, and quantities 2–7 of 1–10 about 60 % of the lines.
// BenchmarkQ19Builder's default brackets pass every row, so its item
// probe never misses and a branch on a miss is never mispredicted; this
// case is the one the dense probe's branch-free loop was chosen on.
func BenchmarkQ19Narrow(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := stamped(b, db, "Q19", ch.Q19Args(2, 7, 10, 70))
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchJoinSetup is benchGoldenSetup plus NewOrder transactions, so Q3's
// undelivered-orders join has matches to project.
func benchJoinSetup(b *testing.B, workers int) (*ch.DB, *olap.Engine, olap.Source) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.02), 1)
	runNewOrders(b, e, db, 200)
	tab := db.OrderLine.Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "bench",
	}}}
	eng := olap.NewEngine(1)
	eng.SetPlacement(placementOf(workers))
	return db, eng, src
}

// BenchmarkQ3Handcoded and BenchmarkQ3Builder compare the
// payload-projecting composite-key join with ordered top-k merge.
func BenchmarkQ3Handcoded(b *testing.B) {
	db, eng, src := benchJoinSetup(b, 8)
	q := &golden.Q3{DB: db}
	b.SetBytes(src.Rows() * 4 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ3Builder is the builder-compiled counterpart.
func BenchmarkQ3Builder(b *testing.B) {
	db, eng, src := benchJoinSetup(b, 8)
	q := stamped(b, db, "Q3", ch.Q3Args(0))
	b.SetBytes(src.Rows() * 4 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ18Handcoded and BenchmarkQ18Builder compare the wide
// group-by/having/top-k merge path (one group per order).
func BenchmarkQ18Handcoded(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := &golden.Q18{DB: db}
	b.SetBytes(src.Rows() * 4 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ18Builder is the builder-compiled counterpart.
func BenchmarkQ18Builder(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := stamped(b, db, "Q18", ch.Q18Args(0))
	b.SetBytes(src.Rows() * 4 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ12Handcoded and BenchmarkQ12Builder compare the
// payload-join with conditional-count aggregation (CountIf pair over
// the probed carrier column).
func BenchmarkQ12Handcoded(b *testing.B) {
	db, eng, src := benchJoinSetup(b, 8)
	q := &golden.Q12{DB: db}
	b.SetBytes(src.Rows() * 4 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ12Builder is the builder-compiled counterpart.
func BenchmarkQ12Builder(b *testing.B) {
	db, eng, src := benchJoinSetup(b, 8)
	q := stamped(b, db, "Q12", ch.Q12Args(0))
	b.SetBytes(src.Rows() * 4 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFactSource builds a one-part source over any fact table of the
// bench database — the graph queries Q2/Q5/Q7 scan stock or orderline.
func benchFactSource(db *ch.DB, table string) olap.Source {
	tab := db.Handle(table).Table()
	return olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "bench",
	}}}
}

// BenchmarkQ2Handcoded and BenchmarkQ2Builder compare the graph-join
// chain over the stock fact (supplier → nation → region, min/avg
// aggregates) against its hand-coded twin.
func BenchmarkQ2Handcoded(b *testing.B) {
	db, eng, _ := benchGoldenSetup(b, 8)
	src := benchFactSource(db, ch.TStock)
	q := &golden.Q2{DB: db}
	b.SetBytes(src.Rows() * 2 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ2Builder is the builder-compiled counterpart.
func BenchmarkQ2Builder(b *testing.B) {
	db, eng, _ := benchGoldenSetup(b, 8)
	src := benchFactSource(db, ch.TStock)
	q := stamped(b, db, "Q2", ch.Q2Args(0, 0))
	b.SetBytes(src.Rows() * 2 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ5Handcoded and BenchmarkQ5Builder compare the five-relation
// graph join (stock chain plus item semi-join) against its hand-coded
// twin.
func BenchmarkQ5Handcoded(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := &golden.Q5{DB: db}
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ5Builder is the builder-compiled counterpart, bound once: after
// the first iteration its build sides are kept on the statement, which is
// how a prepared statement runs in production.
func BenchmarkQ5Builder(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	q := stamped(b, db, "Q5", ch.Q5Args(0))
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ5BuilderCold binds per iteration, so every execution builds
// its join tables from row 0 — what the hand-coded twin does each time.
func BenchmarkQ5BuilderCold(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	benchCold(b, db, eng, ch.Q5PlanParam(), ch.Q5Args(0), src, 3)
}

// benchCold measures plan.Bind, stamping args and one execution per
// iteration: the binding itself is microseconds
// (BenchmarkPlannerGraphBind), the rest is a first execution with
// nothing kept.
func benchCold(b *testing.B, db *ch.DB, eng *olap.Engine, plan *query.Plan, args query.Args, src olap.Source, words int64) {
	b.SetBytes(src.Rows() * words * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := plan.Bind(db)
		if err != nil {
			b.Fatal(err)
		}
		q, err := stmt.WithArgs(args)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ7Handcoded and BenchmarkQ7Builder compare the widest graph
// join — orders, customer (keyed partly by a projected payload), stock
// and supplier — against its hand-coded twin.
func BenchmarkQ7Handcoded(b *testing.B) {
	db, eng, src := benchJoinSetup(b, 8)
	q := &golden.Q7{DB: db}
	b.SetBytes(src.Rows() * 7 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ7BuilderCold is BenchmarkQ7Builder with nothing kept.
func BenchmarkQ7BuilderCold(b *testing.B) {
	db, eng, src := benchJoinSetup(b, 8)
	benchCold(b, db, eng, ch.Q7PlanParam(), ch.Q7Args(0), src, 7)
}

// BenchmarkQ7Builder is the builder-compiled counterpart, bound once.
func BenchmarkQ7Builder(b *testing.B) {
	db, eng, src := benchJoinSetup(b, 8)
	q := stamped(b, db, "Q7", ch.Q7Args(0))
	b.SetBytes(src.Rows() * 7 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerGraphBind measures full compilation throughput for a
// six-relation join graph — resolution, greedy ordering, scan layout and
// kernel fusion — reported as plans per second.
func BenchmarkPlannerGraphBind(b *testing.B) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.TinySizing(), 1)
	build := func() *query.Plan {
		fact := query.Rel(ch.TOrderLine)
		stock := query.Rel(ch.TStock)
		supp := query.Rel(ch.TSupplier)
		nat := query.Rel(ch.TNation)
		reg := query.Rel(ch.TRegion).Filter(query.Eq("r_name", "EUROPE"))
		item := query.Rel(ch.TItem).Filter(query.Ge("i_price", 50.0))
		ords := query.Rel(ch.TOrders)
		return query.Scan(ch.TOrderLine).
			Named("bind6").
			JoinGraph(
				query.JoinOn(fact, stock, "ol_supply_w_id", "s_w_id", "ol_i_id", "s_i_id"),
				query.JoinOn(stock, supp, "s_su_suppkey", "su_suppkey"),
				query.JoinOn(supp, nat, "su_nationkey", "n_nationkey"),
				query.JoinOn(nat, reg, "n_regionkey", "r_regionkey"),
				query.JoinOn(fact, item, "ol_i_id", "i_id"),
				query.JoinOn(fact, ords, "ol_w_id", "o_w_id", "ol_d_id", "o_d_id", "ol_o_id", "o_id"),
			).
			GroupBy("su_nationkey").
			Agg(query.Sum("ol_amount").As("revenue"), query.Count())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build().Bind(db); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "plans/s")
}

// BenchmarkRebind and BenchmarkStmtReuse isolate what prepared
// statements save: Rebind pays the full compilation (catalog lookup,
// predicate typing, kernel selection) before every execution, StmtReuse
// binds once and stamps parameter values per execution. Both run the
// identical Q6 scan, so the delta is pure per-call session overhead.
func BenchmarkRebind(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	defer eng.Close()
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := ch.Q6PlanParam().Bind(db)
		if err != nil {
			b.Fatal(err)
		}
		q, err := stmt.WithArgs(ch.Q6Args(0, 0, 0, 0))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStmtReuse is the prepared-statement counterpart of
// BenchmarkRebind.
func BenchmarkStmtReuse(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	defer eng.Close()
	stmt, err := ch.Q6PlanParam().Bind(db)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := stmt.WithArgs(ch.Q6Args(0, 0, 0, 0))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiTenantTail runs the open-loop multi-tenant serving
// scenario and reports each tenant's wall-clock latency tail plus its
// measured morsel share, so benchjson lands the per-tenant serving
// profile in BENCH_ci.json next to the kernel numbers.
func BenchmarkMultiTenantTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MultiTenant(benchOpt(), 240)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Rejected == r.Submitted {
				// Zero-quota tenant: only the rejection count is meaningful.
				b.ReportMetric(float64(r.Rejected), r.Tenant+"-rejected")
				continue
			}
			b.ReportMetric(r.P50Ms, r.Tenant+"-p50-ms")
			b.ReportMetric(r.P99Ms, r.Tenant+"-p99-ms")
			b.ReportMetric(r.P999Ms, r.Tenant+"-p999-ms")
			b.ReportMetric(r.MorselShare, r.Tenant+"-morsel-share")
		}
	}
}

// BenchmarkInstanceSwitch measures the real switch+sync path latency.
func BenchmarkInstanceSwitch(b *testing.B) {
	sys, err := core.NewSystem(core.DefaultSystemConfig())
	if err != nil {
		b.Fatal(err)
	}
	db := ch.Load(sys.OLTPE, ch.TinySizing(), 1)
	sys.OLTPE.Workers().SetWorkload(ch.NewMix(db, 30, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.InjectTransactions(50)
		sys.X.SwitchAndSync(sys.OLTPE.Tables())
	}
}

// admitFixture is a primed system plus a stale population it can re-create
// at will: order lines appended past the replica's watermark and rows of
// stock, customer and district updated in place below theirs — what the
// admission head of a query (switch and sync, freshness, delta-ETL) has to
// work through, in fixed amounts.
type admitFixture struct {
	sys      *core.System
	db       *ch.DB
	tables   []*oltp.TableHandle
	appended [][]int64
	updated  int // distinct rows updated per populate, over the three tables
	bump     int64
}

func newAdmitFixture(tb testing.TB, sizing ch.Sizing, appended, updated int) *admitFixture {
	tb.Helper()
	sys, err := core.NewSystem(core.DefaultSystemConfig())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	f := &admitFixture{sys: sys, db: ch.Load(sys.OLTPE, sizing, 1), updated: updated}
	sys.PrimeReplicas()
	f.tables = sys.OLTPE.Tables()
	width := len(f.db.OrderLine.Table().Schema().Columns)
	f.appended = make([][]int64, appended)
	for i := range f.appended {
		f.appended[i] = make([]int64, width)
	}
	if rows := f.db.Stock.Table().Rows() + f.db.Customer.Table().Rows() + f.db.District.Table().Rows(); int64(updated) > rows {
		tb.Fatalf("%d rows to update, the three tables hold %d", updated, rows)
	}
	return f
}

// populate makes the fixed population stale again, stamped at the current
// clock so the next switch's snapshot contains all of it.
func (f *admitFixture) populate() {
	ts := f.sys.OLTPE.Manager().Now()
	f.db.OrderLine.Table().AppendRows(f.appended, ts)
	f.bump++
	left := f.updated
	for _, u := range []struct {
		h   *oltp.TableHandle
		col int
	}{{f.db.District, ch.DNextOID}, {f.db.Customer, ch.CPaymentCnt}, {f.db.Stock, ch.SOrderCnt}} {
		t := u.h.Table()
		n := min(int64(left), t.Rows())
		t.BeginApply()
		for row := int64(0); row < n; row++ {
			t.UpdateCell(row, u.col, f.bump, ts)
		}
		t.EndApply()
		left -= int(n)
	}
}

// admit is the exchange's share of one query admission. It returns the
// time the freshness measurement took and checks the three steps saw
// exactly the population.
func (f *admitFixture) admit(tb testing.TB) time.Duration {
	x := f.sys.X
	set := x.SwitchAndSync(f.tables)
	t0 := time.Now()
	fresh := x.MeasureFreshness(f.tables, ch.TOrderLine, 3)
	d := time.Since(t0)
	etl := x.ETL(set)
	if n := int64(len(f.appended)); set.CopiedRows != int64(f.updated) || fresh.QueryFreshRows != n ||
		etl.InsertedRows != n || etl.UpdatedRows != int64(f.updated) {
		tb.Fatalf("admission synced %d rows, measured %d fresh order lines, copied %d inserted and %d updated rows; population is %d appended, %d updated",
			set.CopiedRows, fresh.QueryFreshRows, etl.InsertedRows, etl.UpdatedRows, n, f.updated)
	}
	return d
}

// BenchmarkAdmit times what a query waits for before it runs, at SF 0.01:
// with 20 000 order lines appended and 3 000 rows of stock, customer and
// district updated since the last ETL, one SwitchAndSync, one
// MeasureFreshness (freshness-ns, on its own) and one ETL.
func BenchmarkAdmit(b *testing.B) {
	f := newAdmitFixture(b, ch.SizingForScale(0.01), 20_000, 3_000)
	f.populate()
	f.admit(b) // replica columns grown, version of every path taken once
	var fresh time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f.populate()
		b.StartTimer()
		fresh += f.admit(b)
	}
	b.ReportMetric(float64(fresh.Nanoseconds())/float64(b.N), "freshness-ns")
}

// BenchmarkPrimeReplicas times the first synchronization of the OLAP
// replicas with a freshly loaded SF 0.01 database: one exchange cycle and
// the ETL that absorbs every table. The replicas list the chunks the twins
// share rather than copy them, so B/op is chunk directories, not data.
func BenchmarkPrimeReplicas(b *testing.B) {
	sizing := ch.SizingForScale(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := core.NewSystem(core.DefaultSystemConfig())
		if err != nil {
			b.Fatal(err)
		}
		ch.Load(sys.OLTPE, sizing, 1)
		b.StartTimer()
		sys.PrimeReplicas()
		b.StopTimer()
		sys.Close()
		b.StartTimer()
	}
}

// BenchmarkLoadCH times ch.Load at SF 0.01 into a fresh engine: the
// generators write every table's rows column-major into batches that
// AppendColumns copies into the chunks, then RebuildIndexes checks that
// eight tables hold each row where its key's arithmetic names and fills
// the orders index's per-district arrays (no key is hashed) — the
// engine's share of bench/'s setup_s.
func BenchmarkLoadCH(b *testing.B) {
	sizing := ch.SizingForScale(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch.Load(oltp.NewEngine(), sizing, 1)
	}
}

// BenchmarkKeyIndexGet times one primary-key lookup of a stock row: the
// key's arithmetic, which replaced a cuckoo hash probe under a read lock.
func BenchmarkKeyIndexGet(b *testing.B) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.01), 1)
	idx := db.Stock.Index
	keys := make([]uint64, 0, 1024)
	for w := 1; w <= db.Sizing.Warehouses; w++ {
		for i := 1; i <= 64; i++ {
			keys = append(keys, ch.StockKey(int64(w), int64(i)))
		}
	}
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		if _, ok := idx.Get(keys[i%len(keys)]); ok {
			hits++
		}
	}
	if hits != b.N {
		b.Fatalf("index misses: %d/%d", b.N-hits, b.N)
	}
}

// placementOf builds a single-socket placement of n cores for benches.
func placementOf(n int) topology.Placement {
	return topology.Placement{PerSocket: []int{n}}
}

// BenchmarkPoolConcurrentQueries measures task admission on the shared
// worker pool: every parallel bench goroutine submits Q6 scans that
// interleave their morsels on the same 8 workers. Run with -race in CI as
// the pool's concurrency smoke.
func BenchmarkPoolConcurrentQueries(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	defer eng.Close()
	q := db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0))
	b.SetBytes(src.Rows() * 3 * 8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPoolElasticResize measures a resize round-trip against a pool
// that is concurrently scanning: the cost of shedding and re-granting
// four workers mid-query.
func BenchmarkPoolElasticResize(b *testing.B) {
	db, eng, src := benchGoldenSetup(b, 8)
	defer eng.Close()
	q := db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SetPlacement(placementOf(4))
		eng.SetPlacement(placementOf(8))
	}
	b.StopTimer()
	close(stop)
	<-done
}
