package elastichtap

import (
	"context"
	"runtime"
	"testing"
)

// TestLiveBytesPerRowBudget pins what the engine keeps per user row, the way
// bench/'s live_b_per_row takes it — the heap that survives a collection
// over Σ Rows() — after a NewOrder/Payment mix and one ETL, so the twins,
// the replica, the indexes and the version chains are all there. With each
// twin holding every cell this read 311.2 B; with the twins sharing every
// chunk no update has landed in, 224.5–232; with the replica listing the
// chunks the twins share instead of copying them, 141. The budget is
// 226.6 × 0.8: a replica copy of the never-updated columns does not fit.
func TestLiveBytesPerRowBudget(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second one empties what the first left in sync.Pools
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	db := sys.LoadCH(0.05, 1)
	if err := sys.StartWorkload(50); err != nil {
		t.Fatal(err)
	}
	sys.Run(20000)
	if _, err := sys.QueryInStateContext(context.Background(), Q6(db), S2); err != nil {
		t.Fatal(err)
	}
	live := heap() - before
	var rows int64
	for _, h := range db.Tables() {
		rows += h.Table().Rows()
	}
	perRow := float64(live) / float64(rows)
	m := sys.Metrics()
	t.Logf("%.1f B/row live (%d B over %d rows); twins: %d B shared, %d B private; replica: %d B shared, %d B own",
		perRow, live, rows, m.TwinSharedBytes, m.TwinPrivateBytes, m.ReplicaSharedBytes, m.ReplicaOwnBytes)
	if perRow > 181 {
		t.Fatalf("%.1f live bytes per row, budget 181", perRow)
	}
	// Stock, customer, district and warehouse chunks split; nothing else.
	if m.TwinSharedBytes == 0 || m.TwinPrivateBytes == 0 || m.TwinPrivateBytes > m.TwinSharedBytes/4 {
		t.Fatalf("twins: %d B shared, %d B private — the updated chunks should be a small share",
			m.TwinSharedBytes, m.TwinPrivateBytes)
	}
	// The replica owns the chunks updates had split when it reached them; it
	// lists the rest, tails included.
	if m.ReplicaSharedBytes == 0 || m.ReplicaOwnBytes > m.ReplicaSharedBytes/4 {
		t.Fatalf("replica: %d B shared, %d B own — it should list most of its chunks",
			m.ReplicaSharedBytes, m.ReplicaOwnBytes)
	}
	runtime.KeepAlive(sys)
}
