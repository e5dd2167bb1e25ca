package elastichtap

import (
	"context"
	"reflect"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/ch/golden"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
)

// TestStmtGoldenMatchesFreshBind stamps each evaluation query's prepared
// statement with every golden pair's arguments, on one and on six
// workers, requiring results and scan statistics DeepEqual to the
// hand-coded executor's — the acceptance bar for prepared statements:
// one bind stamped per execution must answer like an independent
// implementation, bit for bit. (That stamping equals a fresh bind of the
// same plan with the values inlined is query's
// TestParamStampMatchesLiteralBind.)
func TestStmtGoldenMatchesFreshBind(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.003), 11)
	runNewOrders(t, e, db, 60)

	for _, workers := range []int{1, 6} {
		eng := olap.NewEngine(1)
		eng.SetPlacement(topology.Placement{PerSocket: []int{workers}})
		for _, p := range goldenPairs(db) {
			src := factSource(db, p.hand.FactTable())
			got, gotSt, err := eng.ExecuteContext(context.Background(), stamped(t, db, p.hand.Name(), p.args), src)
			if err != nil {
				t.Fatalf("%s: stamped exec: %v", p.name, err)
			}
			want, wantSt, err := eng.ExecuteContext(context.Background(), p.hand, src)
			if err != nil {
				t.Fatalf("%s: hand-coded exec: %v", p.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (workers=%d): stamped result != hand-coded\n got %+v\nwant %+v",
					p.name, workers, got, want)
			}
			// Workers varies run to run on the multi-worker engine;
			// everything else must match exactly.
			gotSt.Workers, wantSt.Workers = 0, 0
			gotSt.LocalMorsels, wantSt.LocalMorsels = 0, 0
			gotSt.StolenMorsels, wantSt.StolenMorsels = 0, 0
			gotSt.StolenBytesAt, wantSt.StolenBytesAt = nil, nil
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Errorf("%s (workers=%d): stats %+v != %+v", p.name, workers, gotSt, wantSt)
			}
		}
		eng.Close()
	}
}

// TestFacadeQsArePreparedOncePerDB verifies the facade constructors hit
// the per-DB statement cache: repeated construction returns stamped
// clones of one bound statement, and their executions match the
// hand-coded executors.
func TestFacadeQsArePreparedOncePerDB(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.003), 11)
	runNewOrders(t, e, db, 60)

	c1, err := db.PreparedPlan("Q6")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := db.PreparedPlan("Q6")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("PreparedPlan must cache the bound statement per DB")
	}
	if _, err := db.PreparedPlan("Q99"); err == nil {
		t.Fatal("unknown plan name must error")
	}

	tab := db.OrderLine.Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "golden",
	}}}
	eng := olap.NewEngine(1)
	defer eng.Close()
	eng.SetPlacement(topology.Placement{PerSocket: []int{1}})

	for _, tc := range []struct {
		q, hand Query
	}{
		{Q1(db), &golden.Q1{DB: db}},
		{Q3(db), &golden.Q3{DB: db}},
		{Q6(db), &golden.Q6{DB: db}},
		{Q12(db), &golden.Q12{DB: db}},
		{Q18(db), &golden.Q18{DB: db}},
		{Q19(db), &golden.Q19{DB: db}},
	} {
		got, _, err := eng.ExecuteContext(context.Background(), tc.q, src)
		if err != nil {
			t.Fatalf("%s: facade exec: %v", tc.q.Name(), err)
		}
		want, _, err := eng.ExecuteContext(context.Background(), tc.hand, src)
		if err != nil {
			t.Fatalf("%s: hand-coded exec: %v", tc.q.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: facade prepared result != hand-coded\n got %+v\nwant %+v", tc.q.Name(), got, want)
		}
	}
}
