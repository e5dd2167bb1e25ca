package oltp_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/oltp"
)

// TestConcurrentNewOrdersOnOneDistrict: four clients run NewOrders into
// the only district of a one-warehouse database while a reader resolves
// each next order id as soon as the orders index holds it. Every row the
// reader saw, and every order key afterwards, must agree with a plain map
// built from the orders table's rows. Under -race, an index that published
// an id before storing its row would race with the reader's load; without
// it, the reader would see an unset row.
func TestConcurrentNewOrdersOnOneDistrict(t *testing.T) {
	const clients, perClient = 4, 150
	s := ch.TinySizing()
	s.Warehouses, s.DistrictsPerWH = 1, 1
	e := oltp.NewEngine()
	db := ch.Load(e, s, 1)
	idx := db.Orders.Index

	var done atomic.Bool
	seen := map[int64]uint64{} // order id → row, as the reader resolved it
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for o := int64(s.OrdersPerDistrict) + 1; ; {
			// Read before the lookup: a miss after every client
			// finished is the end, one before it may not be.
			finished := done.Load()
			if row, ok := idx.Get(ch.OrderKey(1, 1, o)); ok {
				seen[o] = row
				o++
			} else if finished {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for range perClient {
				if _, err := e.Manager().RunWithRetry(1<<20, db.NewOrder(rng, 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	reader.Wait()

	ot := db.Orders.Table()
	want := map[uint64]uint64{}
	for r := range ot.Rows() {
		want[ch.OrderKey(ot.ReadActive(r, ch.OWID), ot.ReadActive(r, ch.ODID), ot.ReadActive(r, ch.OID))] = uint64(r)
	}
	if n := s.OrdersPerDistrict + clients*perClient; len(want) != n || idx.Len() != n {
		t.Fatalf("%d distinct order keys and %d indexed, want %d", len(want), idx.Len(), n)
	}
	for k, r := range want {
		if got, ok := idx.Get(k); !ok || got != r {
			t.Fatalf("order key %#x resolves to %d, %v; its row is %d", k, got, ok, r)
		}
	}
	if len(seen) != clients*perClient {
		t.Fatalf("the reader resolved %d new orders, want %d", len(seen), clients*perClient)
	}
	for o, r := range seen {
		if want[ch.OrderKey(1, 1, o)] != r {
			t.Fatalf("the reader resolved order %d to row %d while it was added; its row is %d", o, r, want[ch.OrderKey(1, 1, o)])
		}
	}
	if err := db.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}
