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

// TestDenseMatchesHashedOnCHGraphPlans runs the CH join plans over a
// database that NewOrder has grown, once with build sides packed densely
// (and kept between its executions) and once with every build side
// forced through the hash tables: same rows, same statistics, bit for bit.
// Between them the two runs probe every table representation from a
// one-join and from a multi-join plan: dense from Q12 and OLxItem (one
// join) and Q2/Q5/Q7 (several, some of each keyed on an earlier join's
// payload); forced, Q12 probes a composite-key hash table, OLxItem a
// single-key one, Q5 and Q7 both kinds. Q3 runs its monomorphic loop.
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
		"Q2":  func() *query.Plan { return ch.Q2Plan(0, 0) },
		"Q3":  func() *query.Plan { return ch.Q3Plan(0) },
		"Q5":  func() *query.Plan { return ch.Q5Plan(0) },
		"Q7":  func() *query.Plan { return ch.Q7Plan(0) },
		"Q12": func() *query.Plan { return ch.Q12Plan(0) },
		// The one shape CH lacks: a single-key payload join on its own
		// (Q19's is a semi join and runs a monomorphic loop).
		"OLxItem": func() *query.Plan {
			return query.Scan(ch.TOrderLine).
				JoinGraph(query.JoinOn(query.Rel(ch.TOrderLine), query.Rel(ch.TItem), "ol_i_id", "i_id")).
				GroupBy("ol_number").
				Agg(query.Sum("i_price").As("list"), query.Sum("ol_amount").As("paid"), query.Count().As("n"))
		},
	} {
		t.Run(name, func(t *testing.T) {
			dense, err := plan().Bind(db)
			if err != nil {
				t.Fatal(err)
			}
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
			hashed, err := plan().Bind(db)
			if err != nil {
				t.Fatal(err)
			}
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

// TestCHGreedyOrdersPinned pins, by relation name, the greedy execution
// order of every CH plan, literal and parameterized, at two scales:
// Q5 hoists the selective item semi-join ahead of the stock chain, the
// chains place in dependency order, and Q18 groups orderline alone. A
// change to the estimates or the placement rule that moves any of them
// changes what the benchmark runs.
func TestCHGreedyOrdersPinned(t *testing.T) {
	want := map[string][]string{
		"Q2":  {"supplier", "nation", "region"},
		"Q3":  {"orders"},
		"Q5":  {"item", "stock", "supplier", "nation", "region"},
		"Q7":  {"orders", "customer", "stock", "supplier"},
		"Q12": {"orders"},
		"Q18": nil,
		"Q19": {"item"},
	}
	for _, sz := range []ch.Sizing{ch.TinySizing(), ch.SizingForScale(0.01)} {
		db := ch.Load(oltp.NewEngine(), sz, 1)
		for _, p := range []struct {
			name          string
			literal, prep *query.Plan
		}{
			{"Q2", ch.Q2Plan(0, 0), ch.Q2PlanParam()},
			{"Q3", ch.Q3Plan(0), ch.Q3PlanParam()},
			{"Q5", ch.Q5Plan(0), ch.Q5PlanParam()},
			{"Q7", ch.Q7Plan(0), ch.Q7PlanParam()},
			{"Q12", ch.Q12Plan(0), ch.Q12PlanParam()},
			{"Q18", ch.Q18Plan(0, 0), ch.Q18PlanParam()},
			{"Q19", ch.Q19Plan(0, 0, 0, 0), ch.Q19PlanParam()},
		} {
			for _, plan := range []*query.Plan{p.literal, p.prep} {
				q, err := plan.Bind(db)
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				if got := query.ExecOrder(q); !reflect.DeepEqual(got, want[p.name]) {
					t.Errorf("%s at %d warehouses: order %q, want %q", p.name, sz.Warehouses, got, want[p.name])
				}
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
		"Q2": func() *query.Plan { return ch.Q2Plan(0, 0) },
		"Q5": func() *query.Plan { return ch.Q5Plan(0) },
		"Q7": func() *query.Plan { return ch.Q7Plan(0) },
	} {
		written, err := plan().Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		reversed, err := query.ReverseEdges(plan()).Bind(db)
		if err != nil {
			t.Fatal(err)
		}
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
