package query_test

import (
	"context"
	"math/rand"
	"reflect"
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
