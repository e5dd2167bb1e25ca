package index_test

import (
	"math/rand"
	"sync"
	"testing"

	"elastichtap/internal/ch"
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
		{"customer.c_credit", db.Customer, ch.CCredit},       // dictionary bitmap
		{"nation.n_name", db.Nation, ch.NName},               // static dictionary bitmap
	}
}

// scanPostings is the oracle: a full scan of the active instance.
func scanPostings(p probeCol) map[int64][]int64 {
	t := p.h.Table()
	out := map[int64][]int64{}
	for r := int64(0); r < t.Rows(); r++ {
		v := t.ReadActive(r, p.col)
		out[v] = append(out[v], r)
	}
	return out
}

// checkAgainstScan asserts that index lookups over every distinct value
// agree exactly with a full-column scan, including counts, membership
// order, range probes, and a definitive miss.
func checkAgainstScan(t *testing.T, p probeCol, rng *rand.Rand) {
	t.Helper()
	oracle := scanPostings(p)
	rows := p.h.Table().Rows()
	var miss int64 = -987654321
	for v, want := range oracle {
		post, watermark, ok := p.h.Sec.Lookup(p.col, v)
		if !ok {
			t.Fatalf("%s: value %d not served by index", p.name, v)
		}
		if watermark != rows {
			t.Fatalf("%s: watermark %d, want %d (quiescent lookup must be complete)", p.name, watermark, rows)
		}
		if got := post.Count(); got != int64(len(want)) {
			t.Fatalf("%s: value %d count %d, want %d", p.name, v, got, len(want))
		}
		i := 0
		post.ForEach(func(r int64) {
			if i < len(want) && want[i] != r {
				t.Fatalf("%s: value %d row %d = %d, want %d", p.name, v, i, r, want[i])
			}
			i++
		})
		// Random window: AnyInRange must agree with the scan.
		lo := rng.Int63n(rows + 1)
		hi := lo + rng.Int63n(rows-lo+1)
		wantAny := false
		for _, r := range want {
			if r >= lo && r < hi {
				wantAny = true
				break
			}
		}
		if post.AnyInRange(lo, hi) != wantAny {
			t.Fatalf("%s: value %d AnyInRange(%d,%d) = %v, want %v", p.name, v, lo, hi, !wantAny, wantAny)
		}
	}
	if post, _, ok := p.h.Sec.Lookup(p.col, miss); !ok || !post.Empty() {
		t.Fatalf("%s: absent value must yield empty postings (ok=%v)", p.name, ok)
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
		// Concurrent readers exercise lookup-vs-refresh races under -race;
		// values are only sanity-checked, exact agreement is asserted at
		// the quiescent boundaries below.
		defer wg.Done()
		lrng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := pr[lrng.Intn(len(pr))]
			if post, _, ok := p.h.Sec.Lookup(p.col, lrng.Int63n(30)); ok && post.Count() < 0 {
				panic("negative count")
			}
		}
	}()

	for round := 0; round < 4; round++ {
		for i := 0; i < 25; i++ {
			var body oltp.TxnFunc
			if rng.Intn(2) == 0 {
				body = db.NewOrder(rng, 1+rng.Int63n(int64(db.Sizing.Warehouses)))
			} else {
				body = db.Payment(rng, 1+rng.Int63n(int64(db.Sizing.Warehouses)))
			}
			if _, err := mgr.RunWithRetry(1000, body); err != nil {
				t.Fatal(err)
			}
		}
		// Batch boundary: switch + sync + ETL refresh the indexes.
		x.ETL(x.SwitchAndSync(tables))
		for _, p := range pr {
			checkAgainstScan(t, p, rng)
		}
	}
	close(stop)
	wg.Wait()

	// Columns that cannot be indexed must say so rather than lie.
	if _, _, ok := db.Warehouse.Sec.Lookup(ch.WYtd, 0); ok {
		t.Fatal("float column served by secondary index")
	}
}
