package query

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
)

// Tests for the kept join build sides (build.go): every execution of a
// warm statement must return what a cold Bind and the plan-level
// interpreter of reference_test.go return, and BuildStats must show that
// it got there by reading only what changed.

const (
	ordWarehouses = 3
	ordPerWH      = 40
)

// ordersFixture loads an orders-shaped growing dimension and a fact that
// references it:
//
//	ofact(w, o, amount)          every (w, o) for o in 1..ordPerWH+20, twice
//	odim(w, o, cust, flag)       key (w, o) for o in 1..ordPerWH, o%7==3 missing
//	cdim(cust, nation)           key cust, reached through odim's payload
//
// The holes let a test append a new key inside the packed domain; the
// fact rows past ordPerWH let appended keys change the answer.
func ordersFixture(tb testing.TB) (Catalog, *oltp.Engine) {
	tb.Helper()
	e := oltp.NewEngine()
	fact := e.CreateTable(columnar.Schema{Name: "ofact", Columns: []columnar.ColumnDef{
		{Name: "w", Type: columnar.Int64},
		{Name: "o", Type: columnar.Int64},
		{Name: "amount", Type: columnar.Float64},
	}}, 16, false)
	ft := fact.Table()
	var rows [][]int64
	for rep := 0; rep < 2; rep++ {
		for w := 1; w <= ordWarehouses; w++ {
			for o := 1; o <= ordPerWH+20; o++ {
				rows = append(rows, ft.EncodeRow(w, o, float64(w*1000+o)/8+float64(rep)))
			}
		}
	}
	ft.AppendRows(rows, 0)

	dim := e.CreateTable(columnar.Schema{Name: "odim", Columns: []columnar.ColumnDef{
		{Name: "w", Type: columnar.Int64},
		{Name: "o", Type: columnar.Int64},
		{Name: "cust", Type: columnar.Int64},
		{Name: "flag", Type: columnar.Int64},
	}}, 16, false)
	dt := dim.Table()
	rows = nil
	for w := 1; w <= ordWarehouses; w++ {
		for o := 1; o <= ordPerWH; o++ {
			if o%7 != 3 {
				rows = append(rows, dt.EncodeRow(w, o, (w*o)%9, o%3))
			}
		}
	}
	dt.AppendRows(rows, 0)

	cust := e.CreateTable(columnar.Schema{Name: "cdim", Columns: []columnar.ColumnDef{
		{Name: "cust", Type: columnar.Int64},
		{Name: "nation", Type: columnar.Int64},
	}}, 16, false)
	ct := cust.Table()
	rows = nil
	for c := 0; c < 9; c++ {
		rows = append(rows, ct.EncodeRow(c, c%4))
	}
	ct.AppendRows(rows, 0)
	return testCatalog{e}, e
}

// ordersPlans are the two probe paths over the fixture: one composite-key
// join (the generic single-join probe) and a two-join chain whose second
// key is the first join's payload. flag is the build-side
// predicate value, a Param or a literal.
func ordersPlans(flag any) map[string]*Plan {
	edge := func() JoinEdge {
		return JoinOn(Rel("ofact"), Rel("odim").Filter(Ge("flag", flag)), "w", "w", "o", "o")
	}
	return map[string]*Plan{
		"single": Scan("ofact").JoinGraph(edge()).
			GroupBy("cust").Agg(Sum("amount").As("rev"), Count().As("n")),
		"multi": Scan("ofact").JoinGraph(edge(), JoinOn(Rel("odim"), Rel("cdim"), "cust", "cust")).
			GroupBy("nation").Agg(Sum("amount").As("rev"), Count().As("n")),
	}
}

// ordersEq is "single" with an Eq build-side predicate: the form a
// secondary index narrows, so each build reads the index's own row ids.
// It is not among ordersPlans, whose append test needs every appended
// row to match.
func ordersEq(flag any) *Plan {
	return Scan("ofact").JoinGraph(JoinOn(Rel("ofact"), Rel("odim").Filter(Eq("flag", flag)), "w", "w", "o", "o")).
		GroupBy("cust").Agg(Sum("amount").As("rev"), Count().As("n"))
}

// checkWarm executes the warm statement and holds it to a cold Bind of the
// literal plan and to the reference interpreter.
func checkWarm(t *testing.T, cat Catalog, e *oltp.Engine, stmt *Compiled, name string, flag int64) olap.Result {
	t.Helper()
	q, err := stmt.WithArgs(Args{"f": flag})
	if err != nil {
		t.Fatal(err)
	}
	warm := run(t, e, q)
	literal, ok := ordersPlans(flag)[name]
	if !ok {
		literal = ordersEq(flag)
	}
	cold, err := literal.Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, e, cold); !reflect.DeepEqual(warm, got) {
		t.Fatalf("warm statement diverges from a cold Bind:\nwarm: %+v\ncold: %+v", warm, got)
	}
	if ref := run(t, e, refQuery{literal, cat}); !reflect.DeepEqual(warm, ref) {
		t.Fatalf("warm statement diverges from the reference:\nwarm: %+v\nref:  %+v", warm, ref)
	}
	return warm
}

// delta returns what the statement's counters moved by since *last.
func delta(stmt *Compiled, last *BuildStats) BuildStats {
	now := stmt.BuildStats()
	d := BuildStats{now.Hits - last.Hits, now.Extends - last.Extends, now.Rebuilds - last.Rebuilds, now.RowsRead - last.RowsRead}
	*last = now
	return d
}

func TestBuildSideExtendsOnAppend(t *testing.T) {
	for name, plan := range ordersPlans(Param("f")) {
		t.Run(name, func(t *testing.T) {
			cat, e := ordersFixture(t)
			dt := e.Table("odim").Table()
			stmt, err := plan.Bind(cat)
			if err != nil {
				t.Fatal(err)
			}
			// cdim never changes: after the first execution the multi plan's
			// second join is a hit every time.
			var last BuildStats
			others := int64(len(stmt.joins) - 1)

			first := checkWarm(t, cat, e, stmt, name, 0)
			if d := delta(stmt, &last); d.Hits != 0 || d.Extends != 0 || d.Rebuilds != 1+others {
				t.Fatalf("first execution: %+v, want one rebuild per join", d)
			}
			checkWarm(t, cat, e, stmt, name, 0)
			if d := delta(stmt, &last); d != (BuildStats{Hits: 1 + others}) {
				t.Fatalf("unchanged dimension: %+v, want hits only and no row read", d)
			}

			// A duplicate of an existing key (later rows win) and a new key in
			// one of the domain's holes: both fit the packed table.
			dt.AppendRows([][]int64{dt.EncodeRow(1, 1, 7, 2), dt.EncodeRow(2, 3, 5, 1)}, 1)
			grown := checkWarm(t, cat, e, stmt, name, 0)
			if d := delta(stmt, &last); d != (BuildStats{Hits: others, Extends: 1, RowsRead: 2}) {
				t.Fatalf("two rows appended: %+v, want one extension that read exactly those two rows", d)
			}
			if reflect.DeepEqual(first, grown) {
				t.Fatal("appended dimension rows did not change the answer; the fixture tests nothing")
			}

			// A key past the packed domain rebuilds, with headroom: the keys
			// after it extend again.
			dt.AppendRows([][]int64{dt.EncodeRow(3, ordPerWH+1, 4, 2)}, 2)
			checkWarm(t, cat, e, stmt, name, 0)
			if d := delta(stmt, &last); d.Hits != others || d.Extends != 0 || d.Rebuilds != 1 {
				t.Fatalf("key past the domain: %+v, want one rebuild", d)
			}
			dt.AppendRows([][]int64{dt.EncodeRow(1, ordPerWH+2, 8, 2), dt.EncodeRow(2, ordPerWH+9, 1, 0)}, 3)
			checkWarm(t, cat, e, stmt, name, 0)
			if d := delta(stmt, &last); d != (BuildStats{Hits: others, Extends: 1, RowsRead: 2}) {
				t.Fatalf("keys inside the headroom: %+v, want one extension of two rows", d)
			}
		})
	}
}

func TestBuildSideInvalidation(t *testing.T) {
	// One in-place update of any column the build read — key, payload or
	// predicate — and the join rebuilds on every execution from then on,
	// like it did before tables were kept.
	for col, name := range map[int]string{1: "key", 2: "payload", 3: "predicate"} {
		t.Run("update-"+name, func(t *testing.T) {
			cat, e := ordersFixture(t)
			stmt, err := ordersPlans(Param("f"))["single"].Bind(cat)
			if err != nil {
				t.Fatal(err)
			}
			var last BuildStats
			before := checkWarm(t, cat, e, stmt, "single", 1)
			checkWarm(t, cat, e, stmt, "single", 1)
			if d := delta(stmt, &last); d.Hits != 1 || d.Rebuilds != 1 {
				t.Fatalf("warm-up: %+v, want a rebuild then a hit", d)
			}
			// Row 0 is (w=1, o=1, cust=1, flag=1): move it to the hole at
			// o=3, to another customer, or out of the predicate.
			e.Table("odim").Table().UpdateCell(0, col, map[int]int64{1: 3, 2: 5, 3: 0}[col], 9)
			after := checkWarm(t, cat, e, stmt, "single", 1)
			checkWarm(t, cat, e, stmt, "single", 1)
			if d := delta(stmt, &last); d != (BuildStats{Rebuilds: 2, RowsRead: d.RowsRead}) {
				t.Fatalf("after UpdateCell: %+v, want a rebuild per execution", d)
			}
			if reflect.DeepEqual(before, after) {
				t.Fatal("the update did not change the answer; the fixture tests nothing")
			}
		})
	}

	t.Run("new-args", func(t *testing.T) {
		cat, e := ordersFixture(t)
		stmt, err := ordersPlans(Param("f"))["single"].Bind(cat)
		if err != nil {
			t.Fatal(err)
		}
		var last BuildStats
		for i, step := range []struct {
			flag int64
			want BuildStats
		}{
			{0, BuildStats{Rebuilds: 1}},
			{0, BuildStats{Hits: 1}},
			{2, BuildStats{Rebuilds: 1}}, // other build-side values: another table
			{2, BuildStats{Hits: 1}},
			{0, BuildStats{Rebuilds: 1}}, // one entry per join, the latest
		} {
			checkWarm(t, cat, e, stmt, "single", step.flag)
			d := delta(stmt, &last)
			if d.RowsRead = 0; d != step.want {
				t.Fatalf("step %d (flag %d): %+v, want %+v", i, step.flag, d, step.want)
			}
		}
	})
}

// TestSparseKeysStayHashed: bdim1's keys are multiples of five and its
// predicate keeps two thirds of them, 7.5 cells per build row — past
// denseCellsPerRow, so the generic kernel hashes it and keeps nothing.
func TestSparseKeysStayHashed(t *testing.T) {
	cat, e := newBenchCatalog(t)
	plan := Scan("bfact").JoinGraph(semiDim1()).GroupBy("gid").Agg(Sum("amount").As("rev"), Count().As("n"))
	q, err := plan.Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, ref := run(t, e, q), run(t, e, refQuery{plan, cat}); !reflect.DeepEqual(got, ref) {
			t.Fatalf("hashed join diverges from the reference:\ngot: %+v\nref: %+v", got, ref)
		}
	}
	if st := q.BuildStats(); st.Hits != 0 || st.Extends != 0 || st.Rebuilds != 2 {
		t.Fatalf("sparse build side: %+v, want a rebuild per execution", st)
	}
	if exec, _ := q.Prepare(); exec.(*fexec).joins[0].dn != nil || q.builds.entries[0].tab != nil {
		t.Fatal("sparse build side went dense or was kept")
	}
	// The rule cuts both ways: the full (jk, k2) cross product packs.
	dense, err := Scan("bfact").JoinGraph(joinDimC()).GroupBy("pay").Agg(Count()).Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if exec, _ := dense.Prepare(); exec.(*fexec).joins[0].dn == nil {
		t.Fatal("a fully covered composite key domain did not pack densely")
	}
}

// TestBuildSideConcurrentSubmit runs one statement from several
// goroutines while another appends to its build side. Under -race this
// is the check that a published table is never written, and, for the Eq
// variants, that a narrowed build reading the index's row ids races
// nothing when a later lookup extends them; the answers can only grow
// with the dimension, and once the appender is done the warm statement
// must agree with a cold one. The appended rows carry flag 2.
func TestBuildSideConcurrentSubmit(t *testing.T) {
	type submit struct {
		plan   *Plan
		flag   int64
		hashed bool
	}
	cases := map[string]submit{
		"eq":        {plan: ordersEq(Param("f")), flag: 2},
		"eq-hashed": {plan: ordersEq(Param("f")), flag: 2, hashed: true},
	}
	for name, plan := range ordersPlans(Param("f")) {
		cases[name] = submit{plan: plan}
	}
	for name, sc := range cases {
		t.Run(name, func(t *testing.T) {
			forceHashJoins.Store(sc.hashed)
			defer forceHashJoins.Store(false)
			plan, flag := sc.plan, sc.flag
			cat, e := ordersFixture(t)
			stmt, err := plan.Bind(cat)
			if err != nil {
				t.Fatal(err)
			}
			tab := e.Table("ofact").Table()
			src := olap.Source{Table: tab, Parts: []olap.Part{{Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Label: "test"}}}
			eng := olap.NewEngine(1)
			defer eng.Close()
			eng.SetPlacement(topology.Placement{PerSocket: []int{2}})

			// The appender adds one row per execution it is told about, so
			// appends and executions interleave whatever the scheduler does.
			var wg sync.WaitGroup
			done, failed, tick := make(chan struct{}), make(chan struct{}), make(chan struct{})
			var failOnce sync.Once
			fail := func(format string, args ...any) {
				t.Errorf(format, args...)
				failOnce.Do(func() { close(failed) })
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				dt := e.Table("odim").Table()
				for o := ordPerWH + 1; o <= ordPerWH+20; o++ {
					for w := 1; w <= ordWarehouses; w++ {
						select {
						case <-tick:
						case <-failed:
							return
						}
						dt.AppendRows([][]int64{dt.EncodeRow(w, o, (w+o)%9, 2)}, uint64(o))
					}
				}
			}()
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					matched := 0.0
					for finished := false; !finished; {
						select {
						case <-done:
							finished = true // one more execution, over the final dimension
						case tick <- struct{}{}:
						}
						q, err := stmt.WithArgs(Args{"f": flag})
						if err != nil {
							fail("%v", err)
							return
						}
						res, _, err := eng.ExecuteContext(context.Background(), q, src)
						if err != nil {
							fail("%v", err)
							return
						}
						n := 0.0
						for _, row := range res.Rows {
							n += row[len(row)-1]
						}
						if n < matched {
							fail("matched rows fell from %v to %v while the build side only grew", matched, n)
							return
						}
						matched = n
					}
				}()
			}
			wg.Wait()
			checkWarm(t, cat, e, stmt, name, flag)
			if st := stmt.BuildStats(); !sc.hashed && st.Extends == 0 {
				t.Fatalf("no execution extended a kept table: %+v", st)
			}
		})
	}
}
