package index_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
	"elastichtap/internal/rde"
)

func newExchange(t *testing.T) (*rde.Exchange, *ch.DB) {
	t.Helper()
	engine := oltp.NewEngine()
	db := ch.Load(engine, ch.TinySizing(), 1)
	return rde.New(engine, 0, 1), db
}

// probeCol is one (table, column) pair the property test checks.
type probeCol struct {
	name string
	h    *oltp.TableHandle
	col  int
}

func probes(db *ch.DB) []probeCol {
	return []probeCol{
		{"orderline.ol_i_id", db.OrderLine, ch.OLIID},        // insert-only, hash
		{"orderline.ol_number", db.OrderLine, ch.OLNumber},   // insert-only, low distinct
		{"stock.s_quantity", db.Stock, ch.SQuantity},         // updated in place: rebuild path
		{"stock.s_su_suppkey", db.Stock, ch.SSuSuppkey},      // sibling churns, this column never
		{"customer.c_nationkey", db.Customer, ch.CNationkey}, // sibling churns, this column never
		{"customer.c_credit", db.Customer, ch.CCredit},       // dictionary codes
		{"nation.n_name", db.Nation, ch.NName},               // static dictionary codes
		{"orders.o_carrier_id", db.Orders, ch.OCarrierID},    // Q3's narrowing; Delivery rebuilds it
	}
}

// scanRows is the oracle: a full scan of the active instance.
func scanRows(p probeCol) map[int64][]int64 {
	t := p.h.Table()
	out := map[int64][]int64{}
	for r := int64(0); r < t.Rows(); r++ {
		v := t.ReadActive(r, p.col)
		out[v] = append(out[v], r)
	}
	return out
}

// checkAgainstScan asserts that index lookups over every distinct value
// agree exactly with a full-column scan, rows in ascending order, and that
// an absent value finds no rows.
func checkAgainstScan(t *testing.T, p probeCol) {
	t.Helper()
	oracle := scanRows(p)
	rows := p.h.Table().Rows()
	var miss int64 = -987654321
	for v, want := range oracle {
		got, watermark, ok := p.h.Sec.Lookup(p.col, v)
		if !ok {
			t.Fatalf("%s: value %d not served by index", p.name, v)
		}
		if watermark != rows {
			t.Fatalf("%s: watermark %d, want %d (quiescent lookup must be complete)", p.name, watermark, rows)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: value %d rows %v, want %v", p.name, v, got, want)
		}
	}
	if got, _, ok := p.h.Sec.Lookup(p.col, miss); !ok || len(got) != 0 {
		t.Fatalf("%s: absent value must find no rows (ok=%v, rows %v)", p.name, ok, got)
	}
}

// TestIndexAgreesWithScansUnderChurn is the maintenance property test:
// randomized transaction batches interleaved with instance switches and
// delta-ETL (which Refresh the indexes at each boundary), with lookups
// racing the churn; after every boundary the indexes must agree exactly
// with full-column scans.
func TestIndexAgreesWithScansUnderChurn(t *testing.T) {
	x, db := newExchange(t)
	tables := db.Tables()
	x.ETL(x.SwitchAndSync(tables))
	rng := rand.New(rand.NewSource(99))
	mgr := db.Engine.Manager()
	pr := probes(db)

	// Warm every probed index so Refresh has something to maintain.
	for _, p := range pr {
		if _, _, ok := p.h.Sec.Lookup(p.col, 1); !ok {
			t.Fatalf("%s: initial lookup not served", p.name)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Concurrent readers exercise lookup-vs-refresh races under -race,
		// reading returned rows while refreshes append past them; values are
		// only sanity-checked, exact agreement is asserted at the quiescent
		// boundaries below.
		defer wg.Done()
		lrng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := pr[lrng.Intn(len(pr))]
			if rows, _, ok := p.h.Sec.Lookup(p.col, lrng.Int63n(30)); ok && !slices.IsSorted(rows) {
				panic("rows out of order")
			}
		}
	}()

	for round := 0; round < 4; round++ {
		for i := 0; i < 25; i++ {
			var body oltp.TxnFunc
			w := 1 + rng.Int63n(int64(db.Sizing.Warehouses))
			switch rng.Intn(3) {
			case 0:
				body = db.NewOrder(rng, w)
			case 1:
				body = db.Payment(rng, w)
			default:
				body = db.Delivery(rng, w)
			}
			if _, err := mgr.RunWithRetry(1000, body); err != nil {
				t.Fatal(err)
			}
		}
		// Batch boundary: switch + sync + ETL refresh the indexes.
		x.ETL(x.SwitchAndSync(tables))
		for _, p := range pr {
			checkAgainstScan(t, p)
		}
	}
	close(stop)
	wg.Wait()
	if db.Orders.Table().ColumnUpdateCount(ch.OCarrierID) == 0 {
		t.Fatal("Delivery never set o_carrier_id: its rebuilds went untested")
	}

	// Columns that cannot be indexed must say so rather than lie.
	if _, _, ok := db.Warehouse.Sec.Lookup(ch.WYtd, 0); ok {
		t.Fatal("float column served by secondary index")
	}
}

// TestLookupRowsStayValid holds every slice Lookup returns for one value
// while rows with that value are appended and the column is updated in
// place. Appends extend the index past the held lengths and the update
// forces a rebuild, which must allocate new slices: a narrowed build side
// reads the held rows without copying them.
func TestLookupRowsStayValid(t *testing.T) {
	e := oltp.NewEngine()
	h := e.CreateTable(columnar.Schema{Name: "t", Columns: []columnar.ColumnDef{
		{Name: "v", Type: columnar.Int64},
	}}, 16, false)
	tab := h.Table()
	appendVals := func(ts uint64, vals ...int64) {
		rows := make([][]int64, len(vals))
		for i, v := range vals {
			rows[i] = tab.EncodeRow(v)
		}
		tab.AppendRows(rows, ts)
	}
	var held, want [][]int64
	lookup := func(step string) {
		t.Helper()
		rows, wm, ok := h.Sec.Lookup(0, 1)
		if !ok || wm != tab.Rows() {
			t.Fatalf("%s: lookup not served (ok=%v, watermark %d of %d rows)", step, ok, wm, tab.Rows())
		}
		held, want = append(held, rows), append(want, slices.Clone(rows))
		for i := range held {
			if !slices.Equal(held[i], want[i]) {
				t.Fatalf("%s: rows held since lookup %d changed to %v, were %v", step, i, held[i], want[i])
			}
		}
	}

	appendVals(1, 0, 1, 0, 1, 1)
	lookup("first")
	appendVals(2, 1, 0, 1)
	lookup("after append")
	appendVals(3, 1)
	lookup("after second append")
	tab.UpdateCell(1, 0, 0, 4) // row 1 leaves value 1: rebuild
	lookup("after update")
	appendVals(5, 1, 1, 1, 1)
	lookup("after rebuild and append")
	tab.UpdateCell(0, 0, 1, 6) // row 0 joins value 1: rebuild again
	lookup("after second update")
	if got := want[len(want)-1]; !slices.Equal(got, []int64{0, 3, 4, 5, 7, 8, 9, 10, 11, 12}) {
		t.Fatalf("final rows %v", got)
	}
}
