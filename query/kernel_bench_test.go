package query

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
)

// Micro-benchmarks for the kernel stages in isolation — filter only,
// filter+probe, filter+probe+aggregate — across the column shapes Prepare
// distinguishes (int64 ranges, float64 ranges, dict-coded equality). Each
// fixes one plan shape so a regression in a single stage shows up as a
// per-row cost change in that benchmark alone, instead of being averaged
// into the end-to-end CH query numbers in the root bench suite. Which
// loop each CH plan runs is pinned by TestCHKernelChoicePinned.

const benchRows = 1 << 17

// newBenchCatalog loads a synthetic fact table and two dimension tables
// sized so every kernel stage has work: ~20% of fact rows survive the
// semi-join, the composite join matches every row, and the dense group
// domain stays well inside the flat fast path.
func newBenchCatalog(tb testing.TB) (Catalog, *oltp.Engine) {
	tb.Helper()
	e := oltp.NewEngine()
	fact := e.CreateTable(columnar.Schema{Name: "bfact", Columns: []columnar.ColumnDef{
		{Name: "k1", Type: columnar.Int64},
		{Name: "jk", Type: columnar.Int64},
		{Name: "k2", Type: columnar.Int64},
		{Name: "gid", Type: columnar.Int64},
		{Name: "qty", Type: columnar.Int64},
		{Name: "amount", Type: columnar.Float64},
		{Name: "tag", Type: columnar.String},
		{Name: "k3", Type: columnar.Int64},
		{Name: "gx", Type: columnar.Int64},
	}}, 16, false)
	ft := fact.Table()
	tags := []string{"web", "store", "phone"}
	rows := make([][]int64, 0, benchRows)
	for i := 0; i < benchRows; i++ {
		rows = append(rows, ft.EncodeRow(
			int64(i%100000),    // k1: semi-join key, sparse dim coverage
			int64(i%100),       // jk: composite join key 1, full coverage
			int64(i%50),        // k2: composite join key 2, full coverage
			int64(i%64),        // gid: dense group domain
			int64(i%50+1),      // qty
			float64(i%997)/7.0, // amount
			tags[i%len(tags)],  // tag: dict-coded
			int64(i%40000),     // k3: 40 000 keys, each in 3 or 4 morsels
			gx(i),
		))
	}
	ft.AppendRows(rows, 0)

	// dim1 covers every fifth k1 value, so the semi-join keeps ~20%.
	dim1 := e.CreateTable(columnar.Schema{Name: "bdim1", Columns: []columnar.ColumnDef{
		{Name: "id", Type: columnar.Int64},
		{Name: "w", Type: columnar.Float64},
	}}, 16, false)
	dt := dim1.Table()
	drows := make([][]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		drows = append(drows, dt.EncodeRow(int64(i*5), float64(i%90)+1))
	}
	dt.AppendRows(drows, 0)

	// dimc covers the full (jk, k2) cross product with an integer payload.
	dimc := e.CreateTable(columnar.Schema{Name: "bdimc", Columns: []columnar.ColumnDef{
		{Name: "jk", Type: columnar.Int64},
		{Name: "k2", Type: columnar.Int64},
		{Name: "pay", Type: columnar.Int64},
	}}, 16, false)
	ct := dimc.Table()
	crows := make([][]int64, 0, 100*50)
	for a := 0; a < 100; a++ {
		for c := 0; c < 50; c++ {
			crows = append(crows, ct.EncodeRow(int64(a), int64(c), int64((a+c)%32)))
		}
	}
	ct.AppendRows(crows, 0)

	// dimw is keyed by gid and carries one word more than the payload the
	// vector loop gathers on its stack.
	wcols := []columnar.ColumnDef{{Name: "id", Type: columnar.Int64}}
	for c := 0; c <= payStackWords; c++ {
		wcols = append(wcols, columnar.ColumnDef{Name: fmt.Sprintf("w%d", c), Type: columnar.Int64})
	}
	dimw := e.CreateTable(columnar.Schema{Name: "bdimw", Columns: wcols}, 16, false)
	wrows := make([][]int64, 0, 64)
	for g := 0; g < 64; g++ {
		row := []int64{int64(g)}
		for c := 0; c <= payStackWords; c++ {
			row = append(row, int64((g*(c+3))%97))
		}
		wrows = append(wrows, row)
	}
	dimw.Table().AppendRows(wrows, 0)
	return testCatalog{e}, e
}

// gx is fact row i's dense group key: under 61 mostly, but every 97th row
// carries one of five keys past denseLen, so vectors mix cells and
// spilled keys.
func gx(i int) int64 {
	if i%97 == 40 {
		return int64(denseLen + i%5)
	}
	return int64(i % 61)
}

// semiDim1 is the selective single-key existence join against bdim1.
func semiDim1() JoinEdge {
	return JoinOn(Rel("bfact"), Rel("bdim1").Filter(Between("w", 1, 60)), "k1", "id")
}

// joinDimC is the composite-key join against bdimc; "pay" projects when a
// plan demands it downstream.
func joinDimC() JoinEdge {
	return JoinOn(Rel("bfact"), Rel("bdimc"), "jk", "jk", "k2", "k2")
}

// runKernelBench binds the plan once, then measures end-to-end morsel
// execution on a single worker so per-row kernel cost is the only
// variable.
func runKernelBench(b *testing.B, p *Plan, touched int64) {
	b.Helper()
	cat, e := newBenchCatalog(b)
	q, err := p.Bind(cat)
	if err != nil {
		b.Fatal(err)
	}
	tab := e.Table(q.FactTable()).Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "bench",
	}}}
	eng := olap.NewEngine(1)
	eng.SetPlacement(topology.Placement{PerSocket: []int{1}})
	defer eng.Close()
	b.SetBytes(benchRows * touched * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFilterCountInt64: two int64 range brackets feeding a
// bare count — the branchless integer filter loop with no probe or
// per-group work.
func BenchmarkKernelFilterCountInt64(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Between("qty", 10, 40), Ge("gid", 8)).
		Agg(Count()), 2)
}

// BenchmarkKernelFilterCountFloat64: a float64 range bracket — the
// decode-compare filter loop (floats never take the branchless raw-word
// path).
func BenchmarkKernelFilterCountFloat64(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Between("amount", 20.0, 100.0)).
		Agg(Count()), 1)
}

// BenchmarkKernelFilterCountDict: dict-coded string equality — the
// predicate resolves to a code compare at bind time.
func BenchmarkKernelFilterCountDict(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Eq("tag", "web")).
		Agg(Count()), 1)
}

// BenchmarkKernelFilterProbeSum: one int64 bracket plus a single-key
// existence probe into the selective dimension, summing a float — CH-Q19's
// shape.
func BenchmarkKernelFilterProbeSum(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Between("qty", 5, 45)).
		JoinGraph(semiDim1()).
		Agg(Sum("amount").As("rev")), 3)
}

// BenchmarkKernelFilterProbeGroupSum: filter, composite-key payload
// probe, then grouping on the projected payload — the vector loop's
// filter, probe, dense-group and sum stages.
func BenchmarkKernelFilterProbeGroupSum(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Between("qty", 5, 45)).
		JoinGraph(joinDimC()).
		GroupBy("pay").
		Agg(Sum("amount").As("rev")), 4)
}

// BenchmarkKernelProbeGroupSumSpill: unfiltered composite-key payload
// probe, grouped on a composite key that no join fixes (a fact column and
// a payload word): the vector loop's probe, its open-addressed group
// table and the spill merge, which no CH plan reaches.
func BenchmarkKernelProbeGroupSumSpill(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		JoinGraph(joinDimC()).
		GroupBy("jk", "pay").
		Agg(Sum("amount").As("rev")), 4)
}

// BenchmarkKernelDenseGroupSumIntFloat: one bracket and a dense
// single-key group with int-sum + float-sum — CH-Q1's shape, the one
// plan shape with a fused loop (specDenseSumIF: one 24-byte cell update
// per qualifying row).
func BenchmarkKernelDenseGroupSumIntFloat(b *testing.B) {
	runKernelBench(b, Scan("bfact").
		Filter(Between("qty", 5, 45)).
		GroupBy("gid").
		Agg(Sum("qty").As("sq"), Sum("amount").As("sa")), 4)
}

// BenchmarkKernelMultiProbeWorkers consumes two consecutive morsels of a
// two-join plan, through locals created back to back the way the engine
// creates a task's, from one goroutine and from two. Every row matches
// both joins, so every row gathers its payload words. ns/row is
// goroutine time per consumed row: the two sub-benchmarks read the same
// when the goroutines share nothing they write, and goroutines=2 reads
// higher when something written per row is adjacent across locals.
func BenchmarkKernelMultiProbeWorkers(b *testing.B) {
	cat, e := newBenchCatalog(b)
	dimg := e.CreateTable(columnar.Schema{Name: "bdimg", Columns: []columnar.ColumnDef{
		{Name: "gid", Type: columnar.Int64},
		{Name: "grp", Type: columnar.Int64},
	}}, 16, false)
	var rows [][]int64
	for g := 0; g < 64; g++ {
		rows = append(rows, dimg.Table().EncodeRow(int64(g), int64(g%8)))
	}
	dimg.Table().AppendRows(rows, 0)
	q, err := Scan("bfact").
		JoinGraph(joinDimC(), JoinOn(Rel("bfact"), Rel("bdimg"), "gid", "gid")).
		GroupBy("grp").
		Agg(Sum("pay").As("sp"), Sum("amount").As("rev")).
		Bind(cat)
	if err != nil {
		b.Fatal(err)
	}
	exec, _ := q.Prepare()
	const morsels, reps = 2, 8
	inst := e.Table("bfact").Table().Active()
	var blks [morsels]olap.Block
	for m := range blks {
		lo := int64(m) * columnar.ChunkSize
		blks[m] = olap.Block{Base: lo, N: columnar.ChunkSize}
		for _, c := range q.Columns() {
			blks[m].Cols = append(blks[m].Cols, inst.Col(c).Slice(lo, lo+columnar.ChunkSize))
		}
	}
	for _, goroutines := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			var locals [morsels]olap.Local
			for m := range locals {
				locals[m] = exec.NewLocal()
			}
			consume := func(m int) {
				for r := 0; r < reps; r++ {
					locals[m].Consume(blks[m])
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if goroutines == 1 {
					consume(0)
					consume(1)
					continue
				}
				var wg sync.WaitGroup
				wg.Add(1)
				go func() { defer wg.Done(); consume(1) }()
				consume(0)
				wg.Wait()
			}
			rowsPerGoroutine := float64(b.N) * reps * columnar.ChunkSize * morsels / float64(goroutines)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rowsPerGoroutine, "ns/row")
		})
	}
}
