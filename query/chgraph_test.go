package query_test

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
	"elastichtap/query"
)

// chDefaults holds the CH join plans' default arguments.
var chDefaults = map[string]query.Args{
	"Q2":  ch.Q2Args(0, 0),
	"Q3":  ch.Q3Args(0),
	"Q5":  ch.Q5Args(0),
	"Q7":  ch.Q7Args(0),
	"Q12": ch.Q12Args(0),
	"Q18": ch.Q18Args(0),
}

// bindCH binds plan on db and stamps it with args (nil for a plan
// without parameters).
func bindCH(t *testing.T, db *ch.DB, plan *query.Plan, args query.Args) *query.Compiled {
	t.Helper()
	stmt, err := plan.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	q, err := stmt.WithArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestDenseMatchesHashedOnCHGraphPlans runs the CH join plans over a
// database that NewOrder has grown, once with build sides packed densely
// (and kept between its executions) and once with every build side
// forced through the hash tables: same rows, same statistics, bit for bit.
// Between them the two runs probe every table representation from a
// one-join and from a multi-join plan: dense from Q12 and OLxItem (one
// join) and Q2/Q5/Q7 (several, some of each keyed on an earlier join's
// payload); forced, Q12 probes a composite-key hash table, OLxItem a
// single-key one, Q5 and Q7 both kinds. Q3 and Q18 group on the orders
// row their probe resolved (the gJoin layout), the row of a dense side
// here and of a hashed one when forced. Q18's orders side holds every
// order and is kept: each batch's new orders extend it. Q3's holds only
// the orders NewOrder added (carrier 0, which the loader never writes),
// so a batch's new o_ids can run past its packed domain, and the side is
// rebuilt with headroom when they do and extended otherwise: at SF 0.1,
// between 2 000-NewOrder batches, it was rebuilt at executions 0, 1, 2, 4,
// 7 and 11 of 12. Here every batch of 20 overflows it, so Q3 is held to
// the same answers only.
func TestDenseMatchesHashedOnCHGraphPlans(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.01), 1)
	eng := olap.NewEngine(1)
	defer eng.Close()
	eng.SetPlacement(topology.Placement{PerSocket: []int{2}})
	rng := rand.New(rand.NewSource(5))
	newOrders := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := e.Manager().RunWithRetry(1000, db.NewOrder(rng, 1+rng.Int63n(int64(db.Sizing.Warehouses)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	exec := func(q *query.Compiled) (olap.Result, olap.Stats) {
		tab := db.Handle(q.FactTable()).Table()
		src := olap.Source{Table: tab, Parts: []olap.Part{{Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Label: "test"}}}
		res, st, err := eng.ExecuteContext(context.Background(), q, src)
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	newOrders(50)
	for name, plan := range map[string]func() *query.Plan{
		"Q2":  ch.Q2PlanParam,
		"Q3":  ch.Q3PlanParam,
		"Q5":  ch.Q5PlanParam,
		"Q7":  ch.Q7PlanParam,
		"Q12": ch.Q12PlanParam,
		"Q18": ch.Q18PlanParam,
		// The one shape CH lacks: a single-key payload join on its own
		// (Q19's is a semi join: it projects no payload).
		"OLxItem": func() *query.Plan {
			return query.Scan(ch.TOrderLine).
				JoinGraph(query.JoinOn(query.Rel(ch.TOrderLine), query.Rel(ch.TItem), "ol_i_id", "i_id")).
				GroupBy("ol_number").
				Agg(query.Sum("i_price").As("list"), query.Sum("ol_amount").As("paid"), query.Count().As("n"))
		},
	} {
		t.Run(name, func(t *testing.T) {
			dense := bindCH(t, db, plan(), chDefaults[name])
			// orders grows between the executions: the first growth may push
			// an o_id past the packed domain and rebuild with headroom, the
			// second then extends.
			exec(dense)
			newOrders(20)
			exec(dense)
			newOrders(20)
			gotRes, gotStats := exec(dense)
			if st := dense.BuildStats(); name != "Q3" && st.Hits+st.Extends == 0 {
				t.Fatalf("no build side was reused (%+v): the plan is not exercising the dense path", st)
			}

			query.ForceHashJoins(true)
			defer query.ForceHashJoins(false)
			hashed := bindCH(t, db, plan(), chDefaults[name])
			wantRes, wantStats := exec(hashed)
			if st := hashed.BuildStats(); st.Hits+st.Extends != 0 {
				t.Fatalf("forced hashing still reused a table: %+v", st)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("dense and hashed build sides disagree:\ndense:  %+v\nhashed: %+v", gotRes, wantRes)
			}
			if gotStats.BuildBytes != wantStats.BuildBytes {
				t.Fatalf("build bytes depend on the representation: dense %d, hashed %d", gotStats.BuildBytes, wantStats.BuildBytes)
			}
		})
	}
}

// TestQ18OrdersSideKeptUnderSkew grows orders from one warehouse of 14,
// so o_id runs ahead in its districts alone and the orders domain packs
// at about six cells a row: past a single key's bound, inside a composite
// key's (denseCellsPerRow), while half a span of headroom on o_id takes
// it past that bound too. Q18 runs after every batch of ten NewOrders,
// and its orders side must stay dense, keep the headroom the first
// overflow gives it and extend from then on, not rebuild each time a new
// o_id passes the packed edge. The answers stay those of a forced-hash
// execution.
func TestQ18OrdersSideKeptUnderSkew(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.01), 1)
	eng := olap.NewEngine(1)
	defer eng.Close()
	eng.SetPlacement(topology.Placement{PerSocket: []int{2}})
	rng := rand.New(rand.NewSource(9))
	newOrders := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := e.Manager().RunWithRetry(1000, db.NewOrder(rng, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	exec := func(q *query.Compiled) olap.Result {
		tab := db.Handle(q.FactTable()).Table()
		src := olap.Source{Table: tab, Parts: []olap.Part{{Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Label: "test"}}}
		res, _, err := eng.ExecuteContext(context.Background(), q, src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	newOrders(2500)
	q := bindCH(t, db, ch.Q18PlanParam(), ch.Q18Args(0))
	const runs = 9
	var got olap.Result
	for i := 0; i < runs; i++ {
		if i > 0 {
			newOrders(10)
		}
		got = exec(q)
	}
	// The first execution builds with no headroom, and the first new o_id
	// past it rebuilds with some.
	if st := q.BuildStats(); st.Rebuilds > 2 || st.Hits+st.Extends < runs-2 {
		t.Fatalf("orders side rebuilt %d times in %d executions (%+v): the skewed domain lost its headroom", st.Rebuilds, runs, st)
	}
	query.ForceHashJoins(true)
	defer query.ForceHashJoins(false)
	if want := exec(bindCH(t, db, ch.Q18PlanParam(), ch.Q18Args(0))); !reflect.DeepEqual(got, want) {
		t.Fatalf("dense and hashed orders sides disagree:\ndense:  %+v\nhashed: %+v", got, want)
	}
}

// TestCHGreedyOrdersPinned pins, by relation name, the greedy execution
// order of every CH plan at two scales:
// Q5 hoists the selective item semi-join ahead of the stock chain, the
// chains place in dependency order, and Q18 probes orders alone. A
// change to the estimates or the placement rule that moves any of them
// changes what the benchmark runs.
func TestCHGreedyOrdersPinned(t *testing.T) {
	want := map[string][]string{
		"Q2":  {"supplier", "nation", "region"},
		"Q3":  {"orders"},
		"Q5":  {"item", "stock", "supplier", "nation", "region"},
		"Q7":  {"orders", "customer", "stock", "supplier"},
		"Q12": {"orders"},
		"Q18": {"orders"},
		"Q19": {"item"},
	}
	for _, sz := range []ch.Sizing{ch.TinySizing(), ch.SizingForScale(0.01)} {
		db := ch.Load(oltp.NewEngine(), sz, 1)
		for _, p := range []struct {
			name string
			plan *query.Plan
		}{
			{"Q2", ch.Q2PlanParam()},
			{"Q3", ch.Q3PlanParam()},
			{"Q5", ch.Q5PlanParam()},
			{"Q7", ch.Q7PlanParam()},
			{"Q12", ch.Q12PlanParam()},
			{"Q18", ch.Q18PlanParam()},
			{"Q19", ch.Q19PlanParam()},
		} {
			q, err := p.plan.Bind(db)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if got := query.ExecOrder(q); !reflect.DeepEqual(got, want[p.name]) {
				t.Errorf("%s at %d warehouses: order %q, want %q", p.name, sz.Warehouses, got, want[p.name])
			}
		}
	}
}

// TestCHKernelChoicePinned pins which loop each CH plan runs, stamped
// with arguments from the ranges the benchmark workloads draw: Q1 runs
// its fused loop (specDenseSumIF) and every other plan the vector loop.
// fresh-scan's median query time rises by about a third when Q1 runs the
// vector loop, so a plan edit that breaks its shape match must fail here;
// Q6's quantity brackets pass about half the rows at random, where the
// vector loop's branch-free filter beats a fused loop's per-row branch.
//
// It pins each plan's group layout too. Q7's (supplier nation, customer
// nation) key packs into dense cells over the build sides' nation ranges;
// hashed into the group table it ran about 1.6× slower in the kernel.
// Q3's and Q18's order keys are their orders join's key (Q3's with the
// join's o_entry_d payload), so they address the orders row the probe
// resolved; hashed into the group table (with no orders join),
// BenchmarkQ18Builder ran about 1.4× slower. Q2, Q5 and Q12 group on one word, Q1 on one fact column.
func TestCHKernelChoicePinned(t *testing.T) {
	db := ch.Load(oltp.NewEngine(), ch.TinySizing(), 1)
	yearAgo := []int64{ch.LoadDay - 365, ch.LoadDay - 365 + 59}
	var q6 []query.Args
	for lo := int64(1); lo <= 3; lo++ {
		for hi := lo + 4; hi <= lo+6; hi++ {
			q6 = append(q6, ch.Q6Args(0, 0, lo, hi))
		}
	}
	for _, c := range []struct {
		name   string
		plan   func() *query.Plan
		args   []query.Args
		layout string
	}{
		{"Q1", ch.Q1PlanParam, []query.Args{ch.Q1Args(yearAgo[0]), ch.Q1Args(yearAgo[1])}, "cells"},
		{"Q2", ch.Q2PlanParam, []query.Args{ch.Q2Args(10, 40), ch.Q2Args(19, 49)}, "cells"},
		{"Q3", ch.Q3PlanParam, []query.Args{ch.Q3Args(0)}, "join"},
		{"Q5", ch.Q5PlanParam, []query.Args{ch.Q5Args(40), ch.Q5Args(59)}, "cells"},
		{"Q6", ch.Q6PlanParam, q6, "global"},
		{"Q7", ch.Q7PlanParam, []query.Args{ch.Q7Args(yearAgo[0]), ch.Q7Args(yearAgo[1])}, "packed"},
		{"Q12", ch.Q12PlanParam, []query.Args{ch.Q12Args(yearAgo[0]), ch.Q12Args(yearAgo[1])}, "cells"},
		{"Q18", ch.Q18PlanParam, []query.Args{ch.Q18Args(200), ch.Q18Args(299)}, "join"},
		{"Q19", ch.Q19PlanParam, []query.Args{ch.Q19Args(1, 6, 1, 61), ch.Q19Args(3, 8, 20, 80)}, "global"},
	} {
		for _, args := range c.args {
			q := bindCH(t, db, c.plan(), args)
			fused := query.ProbedTables(q) == "spec"
			if want := c.name == "Q1"; fused != want {
				t.Errorf("%s stamped %v: runs the fused loop %v, want %v", c.name, args, fused, want)
			}
			if got := query.GroupLayout(q); got != c.layout {
				t.Errorf("%s stamped %v: group layout %q, want %q", c.name, args, got, c.layout)
			}
		}
	}
}

// TestEdgeOrderDoesNotChangeAnswers pins the planner's core invariant:
// the written edge order carries no semantic weight. Q2, Q5 and Q7 are
// bound as written and with their JoinOn edges reversed, and both must
// scan the same columns, produce byte-identical rows and charge the same
// build bytes, on one worker and under multi-worker stealing. The scan
// list lays the probe keys out in written order, so reversed Q5 and Q7
// list the same columns in another order: the sets compare.
func TestEdgeOrderDoesNotChangeAnswers(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.005), 11)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 80; i++ {
		if _, err := e.Manager().RunWithRetry(1000, db.NewOrder(rng, 1+rng.Int63n(int64(db.Sizing.Warehouses)))); err != nil {
			t.Fatal(err)
		}
	}
	one := olap.NewEngine(1)
	defer one.Close()
	one.SetPlacement(topology.Placement{PerSocket: []int{1}})
	thief := olap.NewEngine(2)
	defer thief.Close()
	thief.SetPlacement(topology.Placement{PerSocket: []int{0, 6}})

	for name, plan := range map[string]func() *query.Plan{
		"Q2": ch.Q2PlanParam,
		"Q5": ch.Q5PlanParam,
		"Q7": ch.Q7PlanParam,
	} {
		written := bindCH(t, db, plan(), chDefaults[name])
		reversed := bindCH(t, db, query.ReverseEdges(plan()), chDefaults[name])
		if w, r := slices.Sorted(slices.Values(written.Columns())), slices.Sorted(slices.Values(reversed.Columns())); !slices.Equal(w, r) {
			t.Errorf("%s: scan columns %v, reversed %v", name, written.Columns(), reversed.Columns())
		}
		tab := db.Handle(written.FactTable()).Table()
		src := olap.Source{Table: tab, Parts: []olap.Part{{Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Label: "test"}}}
		want, wantSt, err := one.ExecuteContext(context.Background(), written, src)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: no rows; the pair tests nothing", name)
		}
		for _, eng := range []*olap.Engine{one, thief} {
			for _, q := range []*query.Compiled{written, reversed} {
				got, st, err := eng.ExecuteContext(context.Background(), q, src)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: rows differ across edge orders\n got %v\nwant %v", name, got, want)
				}
				if st.BuildBytes != wantSt.BuildBytes {
					t.Errorf("%s: build bytes %d, want %d", name, st.BuildBytes, wantSt.BuildBytes)
				}
			}
		}
	}
}
