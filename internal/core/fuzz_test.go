package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/columnar"
	"elastichtap/internal/rde"
)

// TestFuzzRandomScheduleEquivalence interleaves random transaction bursts,
// random forced states, random access methods and random switches, and
// checks after every query that (a) the result matches a brute-force scan
// of the snapshot the query ran against is consistent with monotonic
// growth, (b) core accounting holds, and (c) ETL'd replicas match the
// snapshot byte-for-byte.
func TestFuzzRandomScheduleEquivalence(t *testing.T) {
	sys, db := newTestSystem(t)
	sys.PrimeReplicas()
	rng := rand.New(rand.NewSource(99))
	states := []State{S1, S2, S3IS, S3NI}

	var lastCount float64
	for step := 0; step < 40; step++ {
		sys.InjectTransactions(rng.Intn(30))

		st := states[rng.Intn(len(states))]
		opt := QueryOptions{ForceState: ForcedState(st)}
		if st == S3IS && rng.Intn(2) == 0 {
			opt.ForceMethod = ForcedMethod(rde.ReadSnapshot)
		}
		rep, _, err := sys.RunQueryContext(context.Background(), db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), opt, nil)
		if err != nil {
			t.Fatalf("step %d (%v): %v", step, st, err)
		}
		// Q6 counts all orderlines: monotone under insert-only workload.
		count := rep.Result.Rows[0][1]
		if count < lastCount {
			t.Fatalf("step %d (%v/%v): count shrank %v -> %v",
				step, st, rep.Method, lastCount, count)
		}
		lastCount = count

		total := sys.Cfg.Topology.TotalCores()
		_, oltpP, olapP := sys.Sched.Placements()
		if got := oltpP.Total() + olapP.Total(); got != total {
			t.Fatalf("step %d: cores leaked: %d != %d", step, got, total)
		}
		if rep.ResponseSeconds < 0 || rep.ETLSeconds < 0 {
			t.Fatalf("step %d: negative timing %+v", step, rep)
		}
	}

	// Final full ETL: replica must equal the snapshot everywhere.
	set := sys.X.SwitchAndSync(sys.OLTPE.Tables())
	sys.X.ETL(set)
	snap := set.Snap(ch.TOrderLine)
	repca := db.OrderLine.Replica
	if repca.Rows() != snap.Rows {
		t.Fatalf("replica rows %d != snapshot %d", repca.Rows(), snap.Rows)
	}
	for r := int64(0); r < snap.Rows; r += 7 {
		if !repca.EqualRow(snap.Inst, r) {
			t.Fatalf("replica row %d diverges after fuzz", r)
		}
	}
}

// TestFuzzConcurrentQueriesAndTransactions runs the OLAP path while a
// goroutine keeps injecting transaction batches, ensuring snapshots stay
// consistent under real concurrency (not just batches between queries).
func TestFuzzConcurrentQueriesAndTransactions(t *testing.T) {
	sys, db := newTestSystem(t)
	sys.PrimeReplicas()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sys.InjectTransactions(50)
		}
	}()
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()

	var last float64
	for i := 0; i < 6; i++ {
		rep, _, err := sys.RunQueryContext(context.Background(), db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		count := rep.Result.Rows[0][1]
		if count < last {
			t.Fatalf("query %d: snapshot went backwards: %v -> %v", i, last, count)
		}
		last = count
		// Revenue is finite and positive.
		if rev := rep.Result.Rows[0][0]; rev <= 0 || rev != rev {
			t.Fatalf("query %d: bad revenue %v", i, rev)
		}
	}
	halt()
	if sys.OLTPE.Workers().Failed() != 0 {
		t.Fatalf("concurrent batches abandoned %d txns", sys.OLTPE.Workers().Failed())
	}

	// The twins agree after a final sync.
	set := sys.X.SwitchAndSync(sys.OLTPE.Tables())
	for _, snap := range set.Snaps {
		tab := snap.Handle.Table()
		name := tab.Schema().Name
		for r := int64(0); r < snap.Rows; r += 13 {
			for c := range tab.Schema().Columns {
				if tab.ReadCell(0, r, c) != tab.ReadCell(1, r, c) {
					t.Fatalf("%s: twins diverge at row %d col %d", name, r, c)
				}
			}
		}
	}
	_ = columnar.WordBytes
}
