package query

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
)

// graphFixture loads a three-table chain for dimension-hop joins:
//
//	gfact(day, pid, amount)        — the fact
//	gprod(pid, mid, grade)         — joined on pid, provides mid
//	gmaker(mid, region, grade)     — joined on gprod's mid payload
//
// gprod and gmaker deliberately share the "grade" column name so
// downstream demand for it is ambiguous.
func graphFixture(t *testing.T) (Catalog, *oltp.Engine) {
	t.Helper()
	e := oltp.NewEngine()
	fact := e.CreateTable(columnar.Schema{Name: "gfact", Columns: []columnar.ColumnDef{
		{Name: "day", Type: columnar.Int64},
		{Name: "pid", Type: columnar.Int64},
		{Name: "amount", Type: columnar.Float64},
	}}, 16, false)
	ft := fact.Table()
	ft.AppendRows([][]int64{
		ft.EncodeRow(1, 1, 10.0),
		ft.EncodeRow(1, 2, 20.0),
		ft.EncodeRow(2, 1, 30.0),
		ft.EncodeRow(2, 2, 40.0),
		ft.EncodeRow(3, 3, 50.0),
	}, 0)

	prod := e.CreateTable(columnar.Schema{Name: "gprod", Columns: []columnar.ColumnDef{
		{Name: "pid", Type: columnar.Int64},
		{Name: "mid", Type: columnar.Int64},
		{Name: "grade", Type: columnar.Int64},
	}}, 4, false)
	pt := prod.Table()
	pt.AppendRows([][]int64{
		pt.EncodeRow(1, 100, 7),
		pt.EncodeRow(2, 200, 8),
		pt.EncodeRow(3, 100, 9),
	}, 0)

	maker := e.CreateTable(columnar.Schema{Name: "gmaker", Columns: []columnar.ColumnDef{
		{Name: "mid", Type: columnar.Int64},
		{Name: "region", Type: columnar.Int64},
		{Name: "grade", Type: columnar.Int64},
	}}, 4, false)
	mt := maker.Table()
	mt.AppendRows([][]int64{
		mt.EncodeRow(100, 1, 1),
		mt.EncodeRow(200, 2, 2),
	}, 0)
	return testCatalog{e}, e
}

// TestJoinGraphDimensionHop drives a fact → gprod → gmaker chain where
// the second join's probe key comes entirely from the first join's
// payload, grouping by a column two hops away, and checks the chain
// written backwards scans the same columns and produces the same rows.
func TestJoinGraphDimensionHop(t *testing.T) {
	cat, e := graphFixture(t)
	build := func() *Plan {
		return Scan("gfact").
			JoinGraph(
				JoinOn(Rel("gfact"), Rel("gprod"), "pid", "pid"),
				JoinOn(Rel("gprod"), Rel("gmaker"), "mid", "mid"),
			).
			GroupBy("region").
			Agg(Sum("amount").As("rev"), Count())
	}
	q, err := build().Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	wantCols := []string{"region", "rev", "count"}
	if !reflect.DeepEqual(res.Cols, wantCols) {
		t.Fatalf("cols = %v, want %v", res.Cols, wantCols)
	}
	// pid 1 and 3 → mid 100 → region 1; pid 2 → mid 200 → region 2.
	want := [][]float64{
		{1, 90, 3},
		{2, 60, 2},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}

	backwards, err := ReverseEdges(build()).Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Columns(), backwards.Columns()) {
		t.Fatalf("scan columns differ across edge orders: %v vs %v", q.Columns(), backwards.Columns())
	}
	if got := run(t, e, backwards); !reflect.DeepEqual(got, res) {
		t.Fatalf("reversed edges diverge: %+v vs %+v", got, res)
	}
}

// TestJoinGraphFilteredRelation restricts the far end of the chain with
// a relation predicate; only rows reaching a surviving maker remain.
func TestJoinGraphFilteredRelation(t *testing.T) {
	cat, e := graphFixture(t)
	q, err := Scan("gfact").
		JoinGraph(
			JoinOn(Rel("gfact"), Rel("gprod"), "pid", "pid"),
			JoinOn(Rel("gprod"), Rel("gmaker").Filter(Eq("grade", 1)), "mid", "mid"),
		).
		GroupBy("region").
		Agg(Sum("amount").As("rev"), Count()).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, q)
	want := [][]float64{{1, 90, 3}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

// TestJoinGraphPlacement holds JoinGraph's eager check and Bind to the
// one placement rule: a relation joins once the source of every edge into
// it is the fact table or an already joined relation. Both must agree on
// every shape — the typed error for a disconnected graph, nil for a
// placeable one.
func TestJoinGraphPlacement(t *testing.T) {
	cat, _ := graphFixture(t)
	fact, prod, maker := Rel("gfact"), Rel("gprod"), Rel("gmaker")
	wide := []JoinEdge{JoinOn(fact, prod, "pid", "pid")}
	for i := 0; i < maxJoins; i++ {
		wide = append(wide, JoinOn(fact, Rel(fmt.Sprintf("gextra%d", i)), "pid", "pid"))
	}
	for _, tc := range []struct {
		name  string
		edges []JoinEdge
		want  error // nil: placeable
	}{
		{"island", []JoinEdge{JoinOn(prod, maker, "mid", "mid")}, ErrDisconnectedJoinGraph},
		{"cycle", []JoinEdge{
			JoinOn(prod, maker, "mid", "mid"),
			JoinOn(maker, prod, "grade", "grade"),
		}, ErrDisconnectedJoinGraph},
		{"source-only", []JoinEdge{
			JoinOn(fact, maker, "pid", "mid"),
			JoinOn(prod, maker, "grade", "grade"),
		}, ErrDisconnectedJoinGraph},
		{"chain", []JoinEdge{
			JoinOn(prod, maker, "mid", "mid"),
			JoinOn(fact, prod, "pid", "pid"),
		}, nil},
		{"fan-out", []JoinEdge{
			JoinOn(fact, prod, "pid", "pid"),
			JoinOn(fact, maker, "day", "mid"),
		}, nil},
		{"composite-half-sourced", []JoinEdge{
			JoinOn(fact, prod, "pid", "pid"),
			JoinOn(fact, maker, "day", "region"),
			JoinOn(prod, maker, "mid", "mid"),
		}, nil},
		{"too-many", wide, errTooMany},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Scan("gfact").JoinGraph(tc.edges...).Agg(Count())
			_, bindErr := p.Bind(cat)
			for stage, err := range map[string]error{"Plan.Err": p.Err(), "Bind": bindErr} {
				switch {
				case tc.want == nil && err != nil:
					t.Errorf("%s = %v, want nil", stage, err)
				case tc.want == errTooMany && (err == nil || !strings.Contains(err.Error(), "max")):
					t.Errorf("%s = %v, want the relation bound", stage, err)
				case tc.want != nil && tc.want != errTooMany && !errors.Is(err, tc.want):
					t.Errorf("%s = %v, want %v", stage, err, tc.want)
				}
			}
		})
	}
}

// errTooMany marks TestJoinGraphPlacement's row past maxJoins, whose
// error is untyped.
var errTooMany = errors.New("too many relations")

// TestJoinGraphAmbiguousFactColumn: a group column present on both the
// fact table and a joined relation cannot be resolved — unless the
// relation holds it as the key equated to that same fact column
// (TestCompositeJoinKey groups by one). A non-key column, or a key equated
// to a differently named fact column, stays ambiguous. The ambiguity
// needs schemas, so it surfaces at Bind, not eagerly.
func TestJoinGraphAmbiguousFactColumn(t *testing.T) {
	cat, _ := newFixture(t)
	for _, p := range []*Plan{
		Scan("sales").
			JoinGraph(JoinOn(Rel("sales"), Rel("daily"), "day", "day")).
			GroupBy("pid").
			Agg(Count()),
		Scan("sales").
			JoinGraph(JoinOn(Rel("sales"), Rel("daily"), "qty", "day", "pid", "pid")).
			GroupBy("day").
			Agg(Count()),
	} {
		if err := p.Err(); err != nil {
			t.Fatalf("eager Plan.Err() = %v, want nil (ambiguity is schema-dependent)", err)
		}
		if _, err := p.Bind(cat); !errors.Is(err, ErrAmbiguousColumn) {
			t.Fatalf("Bind = %v, want ErrAmbiguousColumn", err)
		}
	}
}

// TestJoinGraphAmbiguousRelationColumn: a demanded column owned by two
// joined relations is equally unresolvable.
func TestJoinGraphAmbiguousRelationColumn(t *testing.T) {
	cat, _ := graphFixture(t)
	p := Scan("gfact").
		JoinGraph(
			JoinOn(Rel("gfact"), Rel("gprod"), "pid", "pid"),
			JoinOn(Rel("gprod"), Rel("gmaker"), "mid", "mid"),
		).
		GroupBy("grade").
		Agg(Count())
	if _, err := p.Bind(cat); !errors.Is(err, ErrAmbiguousColumn) {
		t.Fatalf("Bind = %v, want ErrAmbiguousColumn", err)
	}
}
