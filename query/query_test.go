package query

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"elastichtap/internal/columnar"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
)

// testCatalog adapts an oltp.Engine to the Catalog interface.
type testCatalog struct{ e *oltp.Engine }

func (c testCatalog) Handle(name string) *oltp.TableHandle { return c.e.Table(name) }

// newFixture loads a small sales/product pair:
//
//	sales(day int, pid int, qty int, amount float, tag string)
//	product(pid int, price float)
func newFixture(t *testing.T) (Catalog, *oltp.Engine) {
	t.Helper()
	e := oltp.NewEngine()
	sales := e.CreateTable(columnar.Schema{Name: "sales", Columns: []columnar.ColumnDef{
		{Name: "day", Type: columnar.Int64},
		{Name: "pid", Type: columnar.Int64},
		{Name: "qty", Type: columnar.Int64},
		{Name: "amount", Type: columnar.Float64},
		{Name: "tag", Type: columnar.String},
	}}, 16)
	st := sales.Table()
	var rows [][]int64
	for _, r := range []struct {
		day, pid, qty int
		amount        float64
		tag           string
	}{
		{1, 1, 2, 10.5, "web"},
		{1, 2, 1, 3.25, "store"},
		{2, 1, 4, 21.0, "web"},
		{2, 3, 3, 9.0, "web"},
		{3, 2, 5, 16.25, "store"},
		{3, 3, 1, 3.0, "phone"},
	} {
		rows = append(rows, st.EncodeRow(r.day, r.pid, r.qty, r.amount, r.tag))
	}
	st.AppendRows(rows, 0)

	product := e.CreateTable(columnar.Schema{Name: "product", Columns: []columnar.ColumnDef{
		{Name: "pid", Type: columnar.Int64},
		{Name: "price", Type: columnar.Float64},
		{Name: "category", Type: columnar.String},
	}}, 4)
	pt := product.Table()
	pt.AppendRows([][]int64{
		pt.EncodeRow(1, 5.25, "tools"),
		pt.EncodeRow(2, 3.25, "toys"),
		pt.EncodeRow(3, 3.0, "toys"),
	}, 0)

	// daily has a composite (day, pid) primary key for multi-column joins.
	daily := e.CreateTable(columnar.Schema{Name: "daily", Columns: []columnar.ColumnDef{
		{Name: "day", Type: columnar.Int64},
		{Name: "pid", Type: columnar.Int64},
		{Name: "factor", Type: columnar.Int64},
	}}, 8)
	dt := daily.Table()
	dt.AppendRows([][]int64{
		dt.EncodeRow(1, 1, 10),
		dt.EncodeRow(1, 2, 20),
		dt.EncodeRow(2, 1, 30),
		dt.EncodeRow(2, 3, 40),
		dt.EncodeRow(3, 2, 50),
		dt.EncodeRow(3, 3, 60),
	}, 0)
	return testCatalog{e}, e
}

// joinProduct is the one-edge sales ⋈ product graph on pid, with the
// product side restricted by preds.
func joinProduct(preds ...Pred) JoinEdge {
	return JoinOn(Rel("sales"), Rel("product").Filter(preds...), "pid", "pid")
}

func run(t *testing.T, e *oltp.Engine, q olap.Query) olap.Result {
	t.Helper()
	return runWorkers(t, e, q, 1)
}

// runWorkers executes q over its whole fact table on a pool of the given
// size. cuts, ascending, split the source into parts at those rows; the
// engine cuts each part into chunk-aligned morsels, so a cut shortens the
// morsels on either side of it.
func runWorkers(t *testing.T, e *oltp.Engine, q olap.Query, workers int, cuts ...int64) olap.Result {
	t.Helper()
	tab := e.Table(q.FactTable()).Table()
	src := olap.Source{Table: tab}
	lo := int64(0)
	for _, hi := range append(cuts, tab.Rows()) {
		src.Parts = append(src.Parts, olap.Part{Data: tab.Active(), Lo: lo, Hi: hi, Socket: 0, Label: "test"})
		lo = hi
	}
	eng := olap.NewEngine(1)
	defer eng.Close()
	eng.SetPlacement(topology.Placement{PerSocket: []int{workers}})
	res, _, err := eng.ExecuteContext(context.Background(), q, src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFilterGroupByAggregate(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales").
		Filter(Ge("day", 2)).
		GroupBy("pid").
		Agg(Sum("amount").As("revenue"), Sum("qty"), Count()).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	wantCols := []string{"pid", "revenue", "sum_qty", "count"}
	if !reflect.DeepEqual(res.Cols, wantCols) {
		t.Fatalf("cols = %v, want %v", res.Cols, wantCols)
	}
	want := [][]float64{
		{1, 21.0, 4, 1},
		{2, 16.25, 5, 1},
		{3, 12.0, 4, 2},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

func TestUngroupedAggregatesAndMinMax(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales").
		Agg(Min("amount"), Max("amount"), Avg("qty"), Count()).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	want := [][]float64{{3.0, 21.0, 16.0 / 6.0, 6}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

func TestEmptySelectionStillEmitsUngroupedRow(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales").
		Filter(Gt("day", 100)).
		Agg(Sum("amount"), Avg("amount"), Count()).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	want := [][]float64{{0, 0, 0}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

func TestStringEqualityPredicate(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales").
		Filter(Eq("tag", "web")).
		Agg(Sum("amount").As("revenue"), Count()).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	want := [][]float64{{40.5, 3}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}

	// An unknown dictionary string matches nothing (Eq) / everything (Ne).
	q2, err := Scan("sales").Filter(Eq("tag", "fax")).Agg(Count()).Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if res := run(t, e, q2); res.Rows[0][0] != 0 {
		t.Fatalf("unknown Eq matched %v rows", res.Rows[0][0])
	}
	q3, err := Scan("sales").Filter(Ne("tag", "fax")).Agg(Count()).Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if res := run(t, e, q3); res.Rows[0][0] != 6 {
		t.Fatalf("unknown Ne matched %v rows", res.Rows[0][0])
	}
}

func TestSemiJoinWithDimensionPredicate(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales").
		JoinGraph(joinProduct(Gt("price", 3.1))).
		Agg(Sum("amount").As("revenue"), Count().As("matches")).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Class() != costmodel.JoinProbe {
		t.Fatalf("class = %v, want JoinProbe", q.Class())
	}
	// Products 1 (5.25) and 2 (3.25) qualify; sales rows for pid 1,2.
	res := run(t, e, q)
	want := [][]float64{{10.5 + 3.25 + 21.0 + 16.25, 4}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
	// Broadcast charge: 3 dim rows x (key + price) x 8 bytes.
	_, buildBytes := q.Prepare()
	if buildBytes != 3*2*columnar.WordBytes {
		t.Fatalf("buildBytes = %d", buildBytes)
	}
}

func TestMultiColumnGroupKey(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales").
		GroupBy("day", "pid").
		Agg(Count()).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	if len(res.Rows) != 6 {
		t.Fatalf("%d groups, want 6", len(res.Rows))
	}
	// Sorted ascending by (day, pid).
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatalf("rows not sorted: %v", res.Rows)
		}
	}
}

func TestClassInference(t *testing.T) {
	cat, _ := newFixture(t)
	// Payloads are inferred at Bind: pid reads the fact column, nothing
	// projects from product, and the join is an existence probe.
	for _, c := range []struct {
		name string
		plan *Plan
		want costmodel.WorkClass
	}{
		{"reduce", Scan("sales").Agg(Sum("amount")), costmodel.ScanReduce},
		{"groupby", Scan("sales").GroupBy("pid").Agg(Count()), costmodel.ScanGroupBy},
		{"join", Scan("sales").JoinGraph(joinProduct()).GroupBy("pid").Agg(Count()), costmodel.JoinProbe},
	} {
		q, err := c.plan.Bind(cat)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := q.Class(); got != c.want {
			t.Errorf("%s class = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestExplicitProjection(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales", "day", "qty", "amount").
		Filter(Ge("day", 2)).
		Agg(Sum("amount"), Count()).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(q.Columns()); got != 3 {
		t.Fatalf("scan width %d, want 3", got)
	}
	res := run(t, e, q)
	if res.Rows[0][1] != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}

	// Referencing a column outside the projection is a bind error.
	_, err = Scan("sales", "day").Filter(Ge("qty", 1)).Agg(Count()).Bind(cat)
	if err == nil || !strings.Contains(err.Error(), "projection") {
		t.Fatalf("err = %v", err)
	}
}

func TestBindErrors(t *testing.T) {
	cat, _ := newFixture(t)
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"unknown-table", Scan("nope").Agg(Count()), "unknown table"},
		{"unknown-column", Scan("sales").Filter(Eq("color", 1)).Agg(Count()), "no column"},
		{"no-aggregates", Scan("sales").Filter(Eq("day", 1)), "no aggregates"},
		{"string-group", Scan("sales").GroupBy("tag").Agg(Count()), "int64 keys"},
		{"empty-group", Scan("sales").GroupBy("").Agg(Count()), "empty column"},
		{"string-order", Scan("sales").Filter(Gt("tag", "a")).Agg(Count()), "Eq/Ne"},
		{"string-sum", Scan("sales").Agg(Sum("tag")), "string column"},
		{"fractional-int", Scan("sales").Filter(Eq("day", 1.5)).Agg(Count()), "non-integral"},
		{"double-groupby", Scan("sales").GroupBy("day").GroupBy("pid").Agg(Count()), "GroupBy called twice"},
		{"unknown-dim", Scan("sales").JoinGraph(JoinOn(Rel("sales"), Rel("nope"), "pid", "pid")).Agg(Count()), "unknown dimension"},
		{"unknown-dim-col", Scan("sales").JoinGraph(JoinOn(Rel("sales"), Rel("product"), "pid", "sku")).Agg(Count()), "no column"},
		{"joingraph-twice",
			Scan("sales").JoinGraph(joinProduct()).JoinGraph(joinProduct()).Agg(Count()),
			"JoinGraph called twice"},
		{"empty-table", Scan("").Agg(Count()), "empty table"},
	}
	for _, tc := range cases {
		_, err := tc.plan.Bind(cat)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if _, err := Scan("sales").Agg(Count()).Bind(nil); err == nil || !strings.Contains(err.Error(), "nil catalog") {
		t.Errorf("nil catalog: err = %v", err)
	}
	var nilPlan *Plan
	if _, err := nilPlan.Bind(cat); err == nil {
		t.Error("nil plan bound")
	}
}

func TestJoinProjectsPayloadIntoAggregation(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales").
		JoinGraph(joinProduct()).
		GroupBy("day").
		Agg(Sum("price").As("price_sum"), Count()).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Class() != costmodel.JoinProject {
		t.Fatalf("class = %v, want JoinProject", q.Class())
	}
	res := run(t, e, q)
	wantCols := []string{"day", "price_sum", "count"}
	if !reflect.DeepEqual(res.Cols, wantCols) {
		t.Fatalf("cols = %v, want %v", res.Cols, wantCols)
	}
	// Per day, the joined product prices: day 1 -> 5.25+3.25, day 2 ->
	// 5.25+3.0, day 3 -> 3.25+3.0.
	want := [][]float64{
		{1, 8.5, 2},
		{2, 8.25, 2},
		{3, 6.25, 2},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
	// Broadcast charge: 3 dim rows x (key + price payload) x 8 bytes.
	_, buildBytes := q.Prepare()
	if buildBytes != 3*2*columnar.WordBytes {
		t.Fatalf("buildBytes = %d", buildBytes)
	}
}

func TestRelationFilterRestrictsBuildSide(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales").
		JoinGraph(joinProduct(Gt("price", 3.1))).
		Agg(Sum("amount").As("revenue"), Sum("price"), Count()).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	// Products 1 (5.25) and 2 (3.25) qualify; sales rows for pid 1, 2.
	res := run(t, e, q)
	want := [][]float64{{10.5 + 3.25 + 21.0 + 16.25, 5.25 + 3.25 + 5.25 + 3.25, 4}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

func TestCompositeJoinKey(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales").
		JoinGraph(JoinOn(Rel("sales"), Rel("daily"), "day", "day", "pid", "pid")).
		GroupBy("day").
		Agg(Sum("factor").As("fsum")).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	want := [][]float64{{1, 30}, {2, 70}, {3, 110}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
	// Broadcast charge: 6 dim rows x (2 keys + factor payload) x 8 bytes.
	_, buildBytes := q.Prepare()
	if buildBytes != 6*3*columnar.WordBytes {
		t.Fatalf("buildBytes = %d", buildBytes)
	}
}

// TestGroupJoinTopKTiesAcrossParts holds a gJoin plan's range-partitioned
// merge to the interpreter where the Limit cuts through a tie: 20 000
// groups, one per gjdim entry, so the merge splits into several parts of
// contiguous entries; the order column, a max over the group's rows,
// takes its top value in 400 groups spread over every part, and the top
// 40 of them are decided by the leading group word, a permutation of the
// entry. Each part keeps only its own top k, and its bound on what it can
// still keep must let every tied group through to the TopK.
func TestGroupJoinTopKTiesAcrossParts(t *testing.T) {
	e := oltp.NewEngine()
	fact := e.CreateTable(columnar.Schema{Name: "gjfact", Columns: []columnar.ColumnDef{
		{Name: "k", Type: columnar.Int64},
		{Name: "q", Type: columnar.Int64},
		{Name: "amt", Type: columnar.Float64},
	}}, 16).Table()
	dim := e.CreateTable(columnar.Schema{Name: "gjdim", Columns: []columnar.ColumnDef{
		{Name: "id", Type: columnar.Int64},
		{Name: "perm", Type: columnar.Int64},
	}}, 16).Table()
	const groups = 20_000
	var frows, drows [][]int64
	for i := int64(0); i < 2*groups; i++ {
		frows = append(frows, fact.EncodeRow(i%groups, i%groups%50+1, float64(i%977)/8))
	}
	for id := int64(0); id < groups; id++ {
		drows = append(drows, dim.EncodeRow(id, id*7919%groups))
	}
	fact.AppendRows(frows, 0)
	dim.AppendRows(drows, 0)
	cat := testCatalog{e}
	plan := Scan("gjfact").JoinGraph(JoinOn(Rel("gjfact"), Rel("gjdim"), "k", "id")).
		GroupBy("perm", "k").Agg(Max("q").As("top"), Sum("amt").As("rev")).
		OrderBy("top", true).Limit(40)
	q, err := plan.Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := groupLayout(q); got != "join" {
		t.Fatalf("group layout %q, want join", got)
	}
	exec, _ := q.Prepare()
	serial, parts := serialMerge(e, q, exec)
	if parts < 2 {
		t.Fatalf("the merge ran as %d part(s); %d groups must split it", parts, groups)
	}
	lo, hi := int64(groups), int64(0)
	for _, row := range serial.Rows {
		if row[2] != 50 {
			t.Fatalf("row %v: every kept row must carry the tied top value 50", row)
		}
		lo, hi = min(lo, int64(row[1])), max(hi, int64(row[1]))
	}
	if len(serial.Rows) != 40 || hi-lo <= groups/int64(parts) {
		t.Fatalf("%d rows over entries %d..%d: the winners must span more than one of %d parts", len(serial.Rows), lo, hi, parts)
	}
	if ref := runWorkers(t, e, refQuery{plan, cat}, 2); !reflect.DeepEqual(serial, ref) {
		t.Fatalf("fused result diverges from the reference:\nfused: %+v\nref:   %+v", serial, ref)
	}
	for _, workers := range []int{1, 2, 4} {
		if fused := runWorkers(t, e, q, workers); !reflect.DeepEqual(fused, serial) {
			t.Fatalf("workers=%d: the pool-run merge diverges from the serial one:\npool:   %+v\nserial: %+v", workers, fused, serial)
		}
	}
}

func TestOrderByLimitTopK(t *testing.T) {
	cat, e := newFixture(t)
	// Revenue by product: pid 1 -> 31.5, pid 2 -> 19.5, pid 3 -> 12.
	q, err := Scan("sales").
		GroupBy("pid").
		Agg(Sum("amount").As("revenue")).
		OrderBy("revenue", true).
		Limit(2).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	want := [][]float64{{1, 31.5}, {2, 19.5}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
	if res.SortedRows != 3 {
		t.Fatalf("SortedRows = %d, want 3 (rows sorted, not rows kept)", res.SortedRows)
	}

	// Ascending without a limit orders the full set and reports its size.
	q2, err := Scan("sales").
		GroupBy("pid").
		Agg(Sum("amount").As("revenue")).
		OrderBy("revenue", false).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res2 := run(t, e, q2)
	want2 := [][]float64{{3, 12}, {2, 19.5}, {1, 31.5}}
	if !reflect.DeepEqual(res2.Rows, want2) {
		t.Fatalf("rows = %v, want %v", res2.Rows, want2)
	}
	if res2.SortedRows != 3 {
		t.Fatalf("SortedRows = %d", res2.SortedRows)
	}
}

func TestOrderByBreaksTiesOnRemainingColumns(t *testing.T) {
	cat, e := newFixture(t)
	// count per (day) is 2 for every day: the order column ties everywhere,
	// so the group key must decide deterministically (ascending).
	q, err := Scan("sales").
		GroupBy("day").
		Agg(Count()).
		OrderBy("count", true).
		Limit(2).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	want := [][]float64{{1, 2}, {2, 2}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

func TestHavingFiltersAfterAggregation(t *testing.T) {
	cat, e := newFixture(t)
	q, err := Scan("sales").
		GroupBy("pid").
		Agg(Sum("amount").As("revenue"), Count()).
		Having(Gt("revenue", 15)).
		OrderBy("revenue", true).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	want := [][]float64{{1, 31.5, 2}, {2, 19.5, 2}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
	if res.SortedRows != 2 {
		t.Fatalf("SortedRows = %d, want 2 (Having runs before the sort)", res.SortedRows)
	}

	// Having may also test group keys, and works without OrderBy.
	q2, err := Scan("sales").
		GroupBy("pid").
		Agg(Count()).
		Having(Between("pid", 2, 3)).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res2 := run(t, e, q2)
	want2 := [][]float64{{2, 2}, {3, 2}}
	if !reflect.DeepEqual(res2.Rows, want2) {
		t.Fatalf("rows = %v, want %v", res2.Rows, want2)
	}
}

func TestCountIfAndNot(t *testing.T) {
	cat, e := newFixture(t)
	bulk := Ge("qty", 3)
	q, err := Scan("sales").
		GroupBy("day").
		Agg(CountIf(bulk).As("bulk"), CountIf(Not(bulk)).As("small")).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	// qty by day: day 1 -> {2,1}, day 2 -> {4,3}, day 3 -> {5,1}.
	want := [][]float64{{1, 0, 2}, {2, 2, 0}, {3, 1, 1}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}

	// CountIf over a join payload column, ungrouped, with a negated range.
	q2, err := Scan("sales").
		JoinGraph(joinProduct()).
		Agg(
			CountIf(Between("price", 3.1, 6)).As("mid"),
			CountIf(Not(Between("price", 3.1, 6))).As("rest"),
		).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res2 := run(t, e, q2)
	// Prices per sales row: 5.25, 3.25, 5.25, 3.0, 3.25, 3.0 — mid counts
	// the two 5.25 and two 3.25.
	want2 := [][]float64{{4, 2}}
	if !reflect.DeepEqual(res2.Rows, want2) {
		t.Fatalf("rows = %v, want %v", res2.Rows, want2)
	}
}

// TestCountIfEmitsZeroForSpillRangeGroups pins a regression: a group key
// beyond the dense fast-path range (>= 1024) whose rows all fail every
// CountIf condition must still emit a row with count 0, exactly like a
// dense-range key does.
func TestCountIfEmitsZeroForSpillRangeGroups(t *testing.T) {
	cat, e := newFixture(t)
	big := e.CreateTable(columnar.Schema{Name: "big", Columns: []columnar.ColumnDef{
		{Name: "bucket", Type: columnar.Int64},
		{Name: "v", Type: columnar.Int64},
	}}, 8)
	bt := big.Table()
	bt.AppendRows([][]int64{
		bt.EncodeRow(1, 5),    // dense key, cond fails
		bt.EncodeRow(2048, 5), // spill key, cond fails
		bt.EncodeRow(4096, 50),
	}, 0)
	q, err := Scan("big").
		GroupBy("bucket").
		Agg(CountIf(Ge("v", 10)).As("hits")).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	want := [][]float64{{1, 0}, {2048, 0}, {4096, 1}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

func TestPredTypeErrorsAreTyped(t *testing.T) {
	cat, _ := newFixture(t)
	plans := []*Plan{
		Scan("sales").Filter(Eq("day", "monday")).Agg(Count()),
		Scan("sales").Filter(Between("day", 1, "friday")).Agg(Count()),
		Scan("sales").Filter(Between("amount", 1.0, "high")).Agg(Count()),
		Scan("sales").Filter(Eq("tag", 7)).Agg(Count()),
		Scan("sales").Filter(Eq("day", 1.5)).Agg(Count()),
		Scan("sales").JoinGraph(joinProduct(Gt("price", "expensive"))).Agg(Count()),
		Scan("sales").JoinGraph(joinProduct(Le("price", []byte("x")))).Agg(Count()),
		Scan("sales").GroupBy("pid").Agg(Count()).Having(Gt("count", "many")),
		Scan("sales").Agg(CountIf(Eq("qty", "lots"))),
	}
	for i, p := range plans {
		_, err := p.Bind(cat)
		if err == nil {
			t.Errorf("plan %d: wrong-typed literal bound cleanly", i)
			continue
		}
		if !errors.Is(err, ErrPredType) {
			t.Errorf("plan %d: err %v does not wrap ErrPredType", i, err)
		}
	}

	// Name errors must NOT read as type errors.
	_, err := Scan("sales").Filter(Eq("nope", 1)).Agg(Count()).Bind(cat)
	if err == nil || errors.Is(err, ErrPredType) {
		t.Errorf("unknown column: err = %v", err)
	}
}

func TestJoinAndOrderBindErrors(t *testing.T) {
	cat, _ := newFixture(t)
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"limit-without-orderby", Scan("sales").GroupBy("pid").Agg(Count()).Limit(3), "without OrderBy"},
		{"orderby-unknown", Scan("sales").GroupBy("pid").Agg(Count()).OrderBy("revenue", true), "not an output column"},
		{"orderby-twice", Scan("sales").GroupBy("pid").Agg(Count()).OrderBy("count", true).OrderBy("pid", false), "OrderBy called twice"},
		{"limit-nonpositive", Scan("sales").GroupBy("pid").Agg(Count()).OrderBy("count", true).Limit(0), "need > 0"},
		{"having-unknown", Scan("sales").GroupBy("pid").Agg(Count()).Having(Gt("revenue", 1)), "not an output column"},
		{"too-many-keys",
			Scan("sales").JoinGraph(JoinOn(Rel("sales"), Rel("daily"),
				"day", "day", "pid", "pid", "qty", "factor", "amount", "factor")).Agg(Count()),
			"exceeds 3 columns"},
		{"string-payload", Scan("sales").JoinGraph(joinProduct()).Agg(Sum("category")), "payload column \"category\" is a string"},
		{"filter-on-payload",
			Scan("sales").JoinGraph(joinProduct()).Filter(Gt("price", 1)).Agg(Sum("price")),
			"use Relation.Filter"},
		{"string-fact-key", Scan("sales").JoinGraph(JoinOn(Rel("sales"), Rel("product"), "tag", "pid")).Agg(Count()), "not int64"},
		{"group-on-float-payload",
			Scan("sales").JoinGraph(joinProduct()).GroupBy("price").Agg(Count()),
			"only int64 keys"},
		{"unknown-payload", Scan("sales").JoinGraph(joinProduct()).Agg(Sum("sku")), "no column"},
	}
	for _, tc := range cases {
		_, err := tc.plan.Bind(cat)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestFlocalSize holds a morsel's local to 240 bytes. The engine
// allocates one per morsel when a query is submitted, so a field that
// takes the struct into the next size class (288 bytes) costs every plan
// 48 bytes a morsel.
func TestFlocalSize(t *testing.T) {
	if n := unsafe.Sizeof(flocal{}); n > 240 {
		t.Fatalf("flocal is %d bytes, want at most 240", n)
	}
}
