package golden

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/topology"
)

// The oracles themselves are verified here against brute-force scalar
// recomputation over the active instance; builder_golden_test.go (package
// elastichtap) then checks the compiled plans against the oracles. Two
// independent legs keep a shared bug from hiding in the comparison.

func loadTiny(t *testing.T) *ch.DB {
	t.Helper()
	return ch.Load(oltp.NewEngine(), ch.TinySizing(), 1)
}

// sortResult orders result rows by their first column, for comparing
// results whose group emission order differs by construction; the engine's
// own merge is deterministic — partials combine in morsel order regardless
// of worker interleaving.
func sortResult(r *olap.Result) {
	sort.Slice(r.Rows, func(i, j int) bool { return r.Rows[i][0] < r.Rows[j][0] })
}

func execOnActive(t *testing.T, db *ch.DB, q olap.Query) olap.Result {
	t.Helper()
	e := olap.NewEngine(2)
	e.SetPlacement(topology.Placement{PerSocket: []int{0, 4}})
	tab := db.Handle(q.FactTable()).Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{
		{Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0},
	}}
	res, _, err := e.ExecuteContext(context.Background(), q, src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// referenceQ6 computes Q6 by brute force over the active instance.
func referenceQ6(db *ch.DB) (revenue float64, count int64) {
	tab := db.OrderLine.Table()
	for r := int64(0); r < tab.Rows(); r++ {
		q := tab.ReadActive(r, ch.OLQuantity)
		if q >= 1 && q <= 100000 {
			revenue += columnar.DecodeFloat(tab.ReadActive(r, ch.OLAmount))
			count++
		}
	}
	return revenue, count
}

func TestQ6MatchesReference(t *testing.T) {
	db := loadTiny(t)
	res := execOnActive(t, db, &Q6{DB: db})
	wantRev, wantCount := referenceQ6(db)
	if got := res.Rows[0][1]; got != float64(wantCount) {
		t.Fatalf("count = %v, want %d", got, wantCount)
	}
	rev := res.Rows[0][0]
	if diff := rev - wantRev; diff > 1e-6*wantRev || diff < -1e-6*wantRev {
		t.Fatalf("revenue = %v, want %v", rev, wantRev)
	}
}

func TestQ1MatchesReference(t *testing.T) {
	db := loadTiny(t)
	res := execOnActive(t, db, &Q1{DB: db})
	sortResult(&res)

	// Reference group-by.
	tab := db.OrderLine.Table()
	type grp struct {
		qty, amt float64
		cnt      int64
	}
	ref := map[int64]*grp{}
	for r := int64(0); r < tab.Rows(); r++ {
		n := tab.ReadActive(r, ch.OLNumber)
		g := ref[n]
		if g == nil {
			g = &grp{}
			ref[n] = g
		}
		g.qty += float64(tab.ReadActive(r, ch.OLQuantity))
		g.amt += columnar.DecodeFloat(tab.ReadActive(r, ch.OLAmount))
		g.cnt++
	}
	if len(res.Rows) != len(ref) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(ref))
	}
	for _, row := range res.Rows {
		g := ref[int64(row[0])]
		if g == nil {
			t.Fatalf("unexpected group %v", row[0])
		}
		if row[5] != float64(g.cnt) {
			t.Fatalf("group %v count = %v want %d", row[0], row[5], g.cnt)
		}
		if d := row[1] - g.qty; d > 1e-6 || d < -1e-6 {
			t.Fatalf("group %v sum_qty = %v want %v", row[0], row[1], g.qty)
		}
	}
}

func TestQ19MatchesReference(t *testing.T) {
	db := loadTiny(t)
	q := &Q19{DB: db}
	res := execOnActive(t, db, q)

	// Reference join.
	it := db.Item.Table()
	prices := map[int64]float64{}
	for r := int64(0); r < it.Rows(); r++ {
		p := columnar.DecodeFloat(it.ReadActive(r, ch.IPrice))
		if p >= 1 && p <= 100 {
			prices[it.ReadActive(r, ch.IID)] = p
		}
	}
	olt := db.OrderLine.Table()
	var wantRev float64
	var wantMatches int64
	for r := int64(0); r < olt.Rows(); r++ {
		qty := olt.ReadActive(r, ch.OLQuantity)
		if qty < 1 || qty > 10 {
			continue
		}
		if _, ok := prices[olt.ReadActive(r, ch.OLIID)]; ok {
			wantRev += columnar.DecodeFloat(olt.ReadActive(r, ch.OLAmount))
			wantMatches++
		}
	}
	if wantMatches == 0 {
		t.Fatal("reference found no matches; test data too small")
	}
	if got := res.Rows[0][1]; got != float64(wantMatches) {
		t.Fatalf("matches = %v, want %d", got, wantMatches)
	}
	if d := res.Rows[0][0] - wantRev; d > 1e-6*wantRev || d < -1e-6*wantRev {
		t.Fatalf("revenue = %v, want %v", res.Rows[0][0], wantRev)
	}
}

func TestQ3MatchesReference(t *testing.T) {
	db := loadTiny(t)
	// Create undelivered orders.
	mgr := db.Engine.Manager()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 10; i++ {
		if _, err := mgr.RunWithRetry(10, db.NewOrder(rng, 1+int64(i%2))); err != nil {
			t.Fatal(err)
		}
	}
	res := execOnActive(t, db, &Q3{DB: db, TopN: 5})

	// Reference: revenue per undelivered order.
	ot := db.Orders.Table()
	undelivered := map[uint64]bool{}
	for r := int64(0); r < ot.Rows(); r++ {
		if ot.ReadActive(r, ch.OCarrierID) == 0 {
			k := ch.OrderKey(ot.ReadActive(r, ch.OWID), ot.ReadActive(r, ch.ODID), ot.ReadActive(r, ch.OID))
			undelivered[k] = true
		}
	}
	olt := db.OrderLine.Table()
	rev := map[uint64]float64{}
	for r := int64(0); r < olt.Rows(); r++ {
		k := ch.OrderKey(olt.ReadActive(r, ch.OLWID), olt.ReadActive(r, ch.OLDID), olt.ReadActive(r, ch.OLOID))
		if undelivered[k] {
			rev[k] += columnar.DecodeFloat(olt.ReadActive(r, ch.OLAmount))
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("Q3 returned no rows despite undelivered orders")
	}
	if len(res.Rows) > 5 {
		t.Fatalf("TopN violated: %d rows", len(res.Rows))
	}
	// Rows carry (w, d, o, entry_d, revenue), sorted by revenue descending,
	// and must match the reference.
	prev := res.Rows[0][4]
	for _, row := range res.Rows {
		k := ch.OrderKey(int64(row[0]), int64(row[1]), int64(row[2]))
		got := row[4]
		want := rev[k]
		if d := got - want; d > 1e-6 || d < -1e-6 {
			t.Fatalf("order %d revenue = %v, want %v", k, got, want)
		}
		if !undelivered[k] {
			t.Fatalf("order %d is delivered but surfaced", k)
		}
		if got > prev {
			t.Fatal("rows not sorted by revenue")
		}
		prev = got
	}
}

func TestQ12MatchesReference(t *testing.T) {
	db := loadTiny(t)
	res := execOnActive(t, db, &Q12{DB: db})

	ot, olt := db.Orders.Table(), db.OrderLine.Table()
	carrier := map[uint64]int64{}
	cnt := map[uint64]int64{}
	for r := int64(0); r < ot.Rows(); r++ {
		k := ch.OrderKey(ot.ReadActive(r, ch.OWID), ot.ReadActive(r, ch.ODID), ot.ReadActive(r, ch.OID))
		carrier[k] = ot.ReadActive(r, ch.OCarrierID)
		cnt[k] = ot.ReadActive(r, ch.OOlCnt)
	}
	high, low := map[int64]int64{}, map[int64]int64{}
	for r := int64(0); r < olt.Rows(); r++ {
		k := ch.OrderKey(olt.ReadActive(r, ch.OLWID), olt.ReadActive(r, ch.OLDID), olt.ReadActive(r, ch.OLOID))
		car, ok := carrier[k]
		if !ok {
			continue
		}
		if car == 1 || car == 2 {
			high[cnt[k]]++
		} else {
			low[cnt[k]]++
		}
	}
	var wantHigh, wantLow, gotHigh, gotLow int64
	for _, v := range high {
		wantHigh += v
	}
	for _, v := range low {
		wantLow += v
	}
	for _, row := range res.Rows {
		gotHigh += int64(row[1])
		gotLow += int64(row[2])
	}
	if gotHigh != wantHigh || gotLow != wantLow {
		t.Fatalf("high/low = %d/%d, want %d/%d", gotHigh, gotLow, wantHigh, wantLow)
	}
}

func TestQ18MatchesReference(t *testing.T) {
	db := loadTiny(t)
	const minRev, topN = 500.0, 7
	res := execOnActive(t, db, &Q18{DB: db, MinRevenue: minRev, TopN: topN})

	// Reference: revenue and line count per order, thresholded.
	olt := db.OrderLine.Table()
	rev := map[uint64]float64{}
	lines := map[uint64]int64{}
	for r := int64(0); r < olt.Rows(); r++ {
		k := ch.OrderKey(olt.ReadActive(r, ch.OLWID), olt.ReadActive(r, ch.OLDID), olt.ReadActive(r, ch.OLOID))
		rev[k] += columnar.DecodeFloat(olt.ReadActive(r, ch.OLAmount))
		lines[k]++
	}
	qualifying := 0
	for _, v := range rev {
		if v > minRev {
			qualifying++
		}
	}
	wantRows := qualifying
	if wantRows > topN {
		wantRows = topN
	}
	if len(res.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d (qualifying %d)", len(res.Rows), wantRows, qualifying)
	}
	prev := res.Rows[0][3]
	for _, row := range res.Rows {
		k := ch.OrderKey(int64(row[0]), int64(row[1]), int64(row[2]))
		if d := row[3] - rev[k]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("order %d revenue = %v, want %v", k, row[3], rev[k])
		}
		if int64(row[4]) != lines[k] {
			t.Fatalf("order %d lines = %v, want %d", k, row[4], lines[k])
		}
		if row[3] <= minRev {
			t.Fatalf("order %d revenue %v below HAVING threshold", k, row[3])
		}
		if row[3] > prev {
			t.Fatal("rows not sorted by revenue")
		}
		prev = row[3]
	}
}
