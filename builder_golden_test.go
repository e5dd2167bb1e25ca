package elastichtap

import (
	"context"
	"reflect"
	"testing"
	"time"

	"elastichtap/internal/ch"
	"elastichtap/internal/ch/golden"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
	"elastichtap/query"
)

// The hand-coded CH executors in internal/ch/golden are the golden
// references for the declarative builder: these tests assert the
// builder-compiled plans reproduce their results and scan statistics.

// goldenPairs returns (hand-coded, arguments) pairs covering default and
// parameterized forms of Q1, Q6, Q19, the join/ordered/top-k shapes Q3,
// Q12 and Q18, and the graph-join shapes Q2, Q5 and Q7 planned by greedy
// join ordering. The builder side of a pair is the prepared statement of
// the hand-coded query's name stamped with args (see stamped): the path
// the facade and QuerySet run.
func goldenPairs(db *ch.DB) []struct {
	name string
	hand olap.Query
	args query.Args
} {
	day := ch.LoadDay
	return []struct {
		name string
		hand olap.Query
		args query.Args
	}{
		{"Q1-default", &golden.Q1{DB: db}, ch.Q1Args(0)},
		{"Q1-filtered", &golden.Q1{DB: db, MinDeliveryD: int64(day + 5)}, ch.Q1Args(int64(day + 5))},
		{"Q6-default", &golden.Q6{DB: db}, ch.Q6Args(0, 0, 0, 0)},
		{"Q6-bracketed",
			&golden.Q6{DB: db, DateLo: int64(day - 100), DateHi: int64(day + 10), QtyLo: 3, QtyHi: 7},
			ch.Q6Args(int64(day-100), int64(day+10), 3, 7)},
		{"Q19-default", &golden.Q19{DB: db}, ch.Q19Args(0, 0, 0, 0)},
		{"Q19-bracketed",
			&golden.Q19{DB: db, QtyLo: 2, QtyHi: 6, PriceLo: 20, PriceHi: 80},
			ch.Q19Args(2, 6, 20, 80)},
		{"Q3-default", &golden.Q3{DB: db}, ch.Q3Args(0)},
		{"Q3-carrier", &golden.Q3{DB: db, Carrier: q3Carrier}, ch.Q3Args(q3Carrier)},
		{"Q12-default", &golden.Q12{DB: db}, ch.Q12Args(0)},
		{"Q12-since", &golden.Q12{DB: db, DeliveredSince: int64(day - 50)}, ch.Q12Args(int64(day - 50))},
		{"Q18-default", &golden.Q18{DB: db}, ch.Q18Args(0)},
		{"Q18-tight", &golden.Q18{DB: db, MinRevenue: 3000}, ch.Q18Args(3000)},
		{"Q2-default", &golden.Q2{DB: db}, ch.Q2Args(0, 0)},
		{"Q2-bracketed", &golden.Q2{DB: db, QtyLo: 20, QtyHi: 80}, ch.Q2Args(20, 80)},
		{"Q5-default", &golden.Q5{DB: db}, ch.Q5Args(0)},
		{"Q5-pricey", &golden.Q5{DB: db, MinPrice: 80}, ch.Q5Args(80)},
		{"Q7-default", &golden.Q7{DB: db}, ch.Q7Args(0)},
		{"Q7-since", &golden.Q7{DB: db, Since: int64(day - 50)}, ch.Q7Args(int64(day - 50))},
	}
}

// q3Carrier is the carrier of the golden Q3 pair with a non-zero carrier
// argument: the loader delivers every order with a carrier in 1..10.
const q3Carrier = 3

// stamped returns the named CH query's prepared statement on db (bound
// once per DB) stamped with args.
func stamped(tb testing.TB, db *ch.DB, name string, args query.Args) *query.Compiled {
	tb.Helper()
	stmt, err := db.PreparedPlan(name)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := stmt.WithArgs(args)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return q
}

// factSource builds a one-part source over a query's fact table — most
// pairs scan orderline, but Q2's fact is stock.
func factSource(db *ch.DB, table string) olap.Source {
	tab := db.Handle(table).Table()
	return olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "golden",
	}}}
}

// runNewOrders executes NewOrder transactions directly on the OLTP engine
// so a freshly generated database (all orders delivered at load) gains
// undelivered orders for Q3's join to find.
func runNewOrders(t testing.TB, e *oltp.Engine, db *ch.DB, n int) {
	t.Helper()
	e.Workers().SetWorkload(ch.NewMix(db, 0, 5))
	e.Workers().ExecuteBatch(n, 2)
}

func TestBuilderPlanMetadataMatchesHandCoded(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.TinySizing(), 3)
	for _, p := range goldenPairs(db) {
		q := stamped(t, db, p.hand.Name(), p.args)
		if q.Name() != p.hand.Name() {
			t.Errorf("%s: name %q != %q", p.name, q.Name(), p.hand.Name())
		}
		if q.Class() != p.hand.Class() {
			t.Errorf("%s: class %v != %v", p.name, q.Class(), p.hand.Class())
		}
		if q.FactTable() != p.hand.FactTable() {
			t.Errorf("%s: fact %q != %q", p.name, q.FactTable(), p.hand.FactTable())
		}
		if len(q.Columns()) != len(p.hand.Columns()) {
			t.Errorf("%s: scans %d columns, hand-coded %d", p.name, len(q.Columns()), len(p.hand.Columns()))
		}
	}
}

// TestBuilderGoldenSingleWorker executes each pair on a one-worker engine,
// where morsel order is deterministic, and requires byte-identical result
// rows: the compiled kernels must perform the same float operations in the
// same order as the hand-coded executors.
func TestBuilderGoldenSingleWorker(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.003), 11)
	runNewOrders(t, e, db, 60)
	eng := olap.NewEngine(1)
	eng.SetPlacement(topology.Placement{PerSocket: []int{1}})

	for _, p := range goldenPairs(db) {
		src := factSource(db, p.hand.FactTable())
		built := stamped(t, db, p.hand.Name(), p.args)
		want, wantSt, err := eng.ExecuteContext(context.Background(), p.hand, src)
		if err != nil {
			t.Fatalf("%s: hand-coded: %v", p.name, err)
		}
		got, gotSt, err := eng.ExecuteContext(context.Background(), built, src)
		if err != nil {
			t.Fatalf("%s: builder: %v", p.name, err)
		}
		if !reflect.DeepEqual(got.Cols, want.Cols) {
			t.Errorf("%s: cols %v != %v", p.name, got.Cols, want.Cols)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: rows differ\n got %v\nwant %v", p.name, got.Rows, want.Rows)
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Errorf("%s: stats %+v != %+v", p.name, gotSt, wantSt)
		}
	}
}

// TestGoldenQ3CarrierFindsOrders keeps the Q3-carrier pair meaningful:
// on the goldens' database its hand-coded result has rows, so the pair
// holds a stamped non-zero carrier against an independent reference
// rather than two empty results.
func TestGoldenQ3CarrierFindsOrders(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.003), 11)
	eng := olap.NewEngine(1)
	defer eng.Close()
	q := &golden.Q3{DB: db, Carrier: q3Carrier}
	res, _, err := eng.ExecuteContext(context.Background(), q, factSource(db, q.FactTable()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("carrier %d selects no orders", q3Carrier)
	}
}

// TestBuilderGoldenAcrossStates runs each pair through the full system in
// every forced state at two scale factors. The engine merges per-morsel
// partials in morsel order, so float totals are bitwise deterministic for
// hand-coded and builder queries alike: results compare exactly, as do
// shapes, scan statistics and states. Stats.Workers reports the measured
// participant count, which legitimately varies run to run, so it is only
// bounds-checked.
func TestBuilderGoldenAcrossStates(t *testing.T) {
	for _, sf := range []float64{0.002, 0.005} {
		sys, err := New()
		if err != nil {
			t.Fatal(err)
		}
		db := sys.LoadCH(sf, 42)
		if err := sys.StartWorkload(0); err != nil {
			t.Fatal(err)
		}
		sys.Run(60)
		for _, st := range []State{S1, S2, S3IS, S3NI} {
			for _, p := range goldenPairs(db) {
				built := stamped(t, db, p.hand.Name(), p.args)
				want, err := sys.QueryInStateContext(context.Background(), p.hand, st)
				if err != nil {
					t.Fatalf("sf=%v %v %s: hand-coded: %v", sf, st, p.name, err)
				}
				got, err := sys.QueryInStateContext(context.Background(), built, st)
				if err != nil {
					t.Fatalf("sf=%v %v %s: builder: %v", sf, st, p.name, err)
				}
				if got.State != want.State {
					t.Fatalf("sf=%v %v %s: states %v != %v", sf, st, p.name, got.State, want.State)
				}
				assertResultsIdentical(t, p.name, got.Result, want.Result)
				if got.Stats.RowsScanned != want.Stats.RowsScanned ||
					got.Stats.BuildBytes != want.Stats.BuildBytes ||
					got.Stats.Morsels != want.Stats.Morsels ||
					!reflect.DeepEqual(got.Stats.BytesAt, want.Stats.BytesAt) {
					t.Errorf("sf=%v %v %s: stats %+v != %+v", sf, st, p.name, got.Stats, want.Stats)
				}
				for _, st := range []olap.Stats{got.Stats, want.Stats} {
					if st.Morsels > 0 && (st.Workers < 1 || st.Workers > st.Morsels) {
						t.Errorf("sf=%v %s: workers %d outside [1,%d]", sf, p.name, st.Workers, st.Morsels)
					}
				}
			}
		}
	}
}

// assertResultsIdentical demands bitwise equality: the worker pool's
// morsel-ordered merge removes all run-to-run float drift, so golden
// results must match to the last bit even across worker counts, work
// stealing and mid-query resizes.
func assertResultsIdentical(t *testing.T, name string, got, want olap.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatalf("%s: cols %v != %v", name, got.Cols, want.Cols)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s: rows differ\n got %v\nwant %v", name, got.Rows, want.Rows)
	}
}

// TestBuilderGoldenDeterministicUnderStealing pins the determinism claim
// directly at the engine: a placement whose workers all live on the
// remote socket forces every morsel through cross-socket work stealing
// with racy claim order, yet each run must stay byte-identical to the
// single-worker hand-coded reference.
func TestBuilderGoldenDeterministicUnderStealing(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.02), 11)
	runNewOrders(t, e, db, 150)

	ref := olap.NewEngine(2)
	defer ref.Close()
	ref.SetPlacement(topology.Placement{PerSocket: []int{1, 0}})

	thief := olap.NewEngine(2)
	defer thief.Close()
	thief.SetPlacement(topology.Placement{PerSocket: []int{0, 6}})

	for _, p := range goldenPairs(db) {
		src := factSource(db, p.hand.FactTable())
		built := stamped(t, db, p.hand.Name(), p.args)
		want, _, err := ref.ExecuteContext(context.Background(), p.hand, src)
		if err != nil {
			t.Fatalf("%s: reference: %v", p.name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: reference produced no rows; the pair tests nothing", p.name)
		}
		for round := 0; round < 3; round++ {
			for _, q := range []olap.Query{p.hand, built} {
				got, st, err := thief.ExecuteContext(context.Background(), q, src)
				if err != nil {
					t.Fatalf("%s round %d: %v", p.name, round, err)
				}
				assertResultsIdentical(t, p.name, got, want)
				if st.StolenMorsels != int64(st.Morsels) {
					t.Fatalf("%s: %d/%d morsels stolen, expected all (workers are remote)",
						p.name, st.StolenMorsels, st.Morsels)
				}
			}
		}
	}
}

// TestGoldenStableUnderMigrationChurn queries through the full adaptive
// system while a background goroutine thrashes state migrations, resizing
// the OLAP pool mid-query. With no concurrent transactions the snapshot
// is fixed, so every repetition must return byte-identical rows.
func TestGoldenStableUnderMigrationChurn(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	db := sys.LoadCH(0.02, 7)
	if err := sys.StartWorkload(0); err != nil {
		t.Fatal(err)
	}
	sys.Run(300)

	stop := make(chan struct{})
	donech := make(chan struct{})
	go func() {
		defer close(donech)
		states := []State{S1, S3NI, S3IS, S1, S3NI}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sys.Core().Sched.MigrateTo(states[i%len(states)])
			time.Sleep(100 * time.Microsecond)
		}
	}()

	for _, q := range []Query{Q1(db), Q6(db), Q19(db), Q3(db), Q12(db), Q18(db), Q2(db), Q5(db), Q7(db)} {
		var want olap.Result
		for round := 0; round < 4; round++ {
			rep, err := sys.QueryInStateContext(context.Background(), q, S3NI)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				want = rep.Result
				continue
			}
			assertResultsIdentical(t, q.Name(), rep.Result, want)
		}
	}
	close(stop)
	<-donech
}

// TestAdhocFilterGroupByEndToEnd runs a brand-new ad-hoc query — filter
// plus group-by on orderline, not one of Q1/Q6/Q19 — through the adaptive
// scheduler and cross-checks the result against a direct table scan.
func TestAdhocFilterGroupByEndToEnd(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	db := sys.LoadCH(0.005, 9)
	if err := sys.StartWorkload(0); err != nil {
		t.Fatal(err)
	}
	sys.Run(200)

	cutoff := int64(ch.LoadDay - 30)
	q, err := sys.Prepare(query.Scan(ch.TOrderLine).
		Named("wh-revenue").
		Filter(query.Ge("ol_delivery_d", cutoff)).
		GroupBy("ol_w_id").
		Agg(query.Sum("ol_amount").As("revenue"), query.Count().As("lines")))
	if err != nil {
		t.Fatal(err)
	}
	if q.Class() != ScanGroupBy {
		t.Fatalf("inferred class %v, want ScanGroupBy", q.Class())
	}
	rep, err := sys.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 2 must land in one of the four states and actually scan.
	switch rep.State {
	case S1, S2, S3IS, S3NI:
	default:
		t.Fatalf("scheduler state = %v", rep.State)
	}
	if rep.Stats.RowsScanned != db.OrderLine.Table().Rows() {
		t.Fatalf("scanned %d rows, table has %d", rep.Stats.RowsScanned, db.OrderLine.Table().Rows())
	}

	// Reference aggregation straight off the active instance. The query
	// ran over a snapshot taken before any concurrent activity, and Run
	// finished before the query, so the contents agree.
	tab := db.OrderLine.Table()
	wantLines := map[int64]int64{}
	for r := int64(0); r < tab.Rows(); r++ {
		if tab.ReadActive(r, ch.OLDeliveryD) >= cutoff {
			wantLines[tab.ReadActive(r, ch.OLWID)]++
		}
	}
	if len(rep.Result.Rows) != len(wantLines) {
		t.Fatalf("%d groups, want %d", len(rep.Result.Rows), len(wantLines))
	}
	for _, row := range rep.Result.Rows {
		w, lines, revenue := int64(row[0]), int64(row[2]), row[1]
		if wantLines[w] != lines {
			t.Errorf("warehouse %d: %d lines, want %d", w, lines, wantLines[w])
		}
		if revenue <= 0 {
			t.Errorf("warehouse %d: non-positive revenue %v", w, revenue)
		}
	}
}
