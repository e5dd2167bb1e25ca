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
// chunks the twins share instead of copying them, 141–144, about 19 B of it
// version chains: every row ever updated kept its last pre-image, about
// 82 000 versions. With versions swept once no snapshot can read them it
// reads 122.6–127.4 B (GOMAXPROCS 2 and 8, with and without -race) over
// 0.9–8.3 thousand versions, nearly all of them the chains of the 14
// warehouse and 140 district rows, which the watermark of their last push
// — held back by a transaction still running — could not trim. The
// budgets are 136 B, the highest reading plus 7 %, and 20 000 versions,
// about twice the highest count: keeping what nobody can read fails both.
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
	t.Logf("%.1f B/row live (%d B over %d rows); twins: %d B shared, %d B private; replica: %d B shared, %d B own; %d versions",
		perRow, live, rows, m.TwinSharedBytes, m.TwinPrivateBytes, m.ReplicaSharedBytes, m.ReplicaOwnBytes, m.VersionRows)
	if perRow > 136 {
		t.Fatalf("%.1f live bytes per row, budget 136", perRow)
	}
	if m.VersionRows > 20_000 {
		t.Fatalf("%d versions once the run is over, budget 20 000", m.VersionRows)
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
