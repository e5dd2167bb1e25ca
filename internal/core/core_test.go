package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/oltp"
	"elastichtap/internal/rde"
)

func newTestSystem(t *testing.T) (*System, *ch.DB) {
	t.Helper()
	cfg := DefaultSystemConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := ch.Load(sys.OLTPE, ch.TinySizing(), 1)
	sys.OLTPE.Workers().SetWorkload(ch.NewMix(db, 0, 1))
	return sys, db
}

func TestBootstrapIsS2(t *testing.T) {
	sys, _ := newTestSystem(t)
	if sys.Sched.State() != S2 {
		t.Fatalf("boot state = %v, want S2", sys.Sched.State())
	}
	// Each engine owns one full socket (§5.1).
	_, oltpP, olapP := sys.Sched.Placements()
	if got := oltpP.On(0); got != 14 {
		t.Fatalf("OLTP cores on socket 0 = %d", got)
	}
	if got := olapP.On(1); got != 14 {
		t.Fatalf("OLAP cores on socket 1 = %d", got)
	}
}

func TestMigrationsConserveCoresAndRespectFloors(t *testing.T) {
	sys, _ := newTestSystem(t)
	total := sys.Cfg.Topology.TotalCores()
	for _, st := range []State{S1, S2, S3IS, S3NI, S1, S3NI, S2} {
		sys.Sched.MigrateTo(st)
		_, oltpP, olapP := sys.Sched.Placements()
		oltp, olap := oltpP.Total(), olapP.Total()
		if oltp+olap != total {
			t.Fatalf("state %v: %d+%d != %d cores", st, oltp, olap, total)
		}
		floor := sys.Sched.Config().OLTPCpuThres[0]
		switch st {
		case S1, S3NI:
			if got := oltpP.On(0); got < floor {
				t.Fatalf("state %v: OLTP below floor: %d < %d", st, got, floor)
			}
		case S2, S3IS:
			if got := oltpP.On(0); got != 14 {
				t.Fatalf("state %v: OLTP should own its socket, has %d", st, got)
			}
		}
	}
}

// workerRecorder is a workload that remembers which worker ids asked it for
// a transaction body; each body is the wrapped workload's.
type workerRecorder struct {
	inner oltp.Workload
	mu    sync.Mutex
	seen  map[int]bool
}

func (w *workerRecorder) Next(worker int) oltp.TxnFunc {
	w.mu.Lock()
	w.seen[worker] = true
	w.mu.Unlock()
	return w.inner.Next(worker)
}

// TestInjectTransactionsUsesOLTPPlacement: a batch runs on exactly as many
// workers as the scheduler's OLTP placement holds after the migration
// before it, numbered from zero — the scheduler is the only holder of the
// OLTP core count.
func TestInjectTransactionsUsesOLTPPlacement(t *testing.T) {
	sys, db := newTestSystem(t)
	defer sys.Close()
	n := 2 * sys.Cfg.Topology.TotalCores()
	for _, st := range []State{S1, S2, S3IS, S3NI} {
		sys.Sched.MigrateTo(st)
		_, oltpP, _ := sys.Sched.Placements()
		rec := &workerRecorder{inner: ch.NewMix(db, 0, 1), seen: map[int]bool{}}
		sys.OLTPE.Workers().SetWorkload(rec)
		sys.InjectTransactions(n)
		if len(rec.seen) != oltpP.Total() {
			t.Errorf("%v: batch of %d ran on %d workers, OLTP placement holds %d cores", st, n, len(rec.seen), oltpP.Total())
		}
		for w := range oltpP.Total() {
			if !rec.seen[w] {
				t.Errorf("%v: worker %d of %d never ran", st, w, oltpP.Total())
			}
		}
	}
}

func TestMigrateS1TradesCores(t *testing.T) {
	sys, _ := newTestSystem(t)
	sys.Sched.MigrateTo(S1)
	k := sys.Sched.Config().ElasticCores
	_, oltpP, olapP := sys.Sched.Placements()
	if got := olapP.On(0); got != k {
		t.Fatalf("OLAP cores on OLTP socket = %d, want %d", got, k)
	}
	if got := oltpP.On(1); got != k {
		t.Fatalf("OLTP cores on OLAP socket = %d, want %d (trade)", got, k)
	}
}

func TestMigrateS3NILendsWithoutTrading(t *testing.T) {
	sys, _ := newTestSystem(t)
	sys.Sched.MigrateTo(S3NI)
	k := sys.Sched.Config().ElasticCores
	_, oltpP, olapP := sys.Sched.Placements()
	if got := olapP.On(0); got != k {
		t.Fatalf("borrowed cores = %d, want %d", got, k)
	}
	if got := oltpP.On(1); got != 0 {
		t.Fatalf("OLTP must not receive OLAP-socket cores in S3-NI, has %d", got)
	}
	if got := olapP.On(1); got != 14 {
		t.Fatalf("OLAP socket cores = %d", got)
	}
}

func TestDecideAlgorithm2(t *testing.T) {
	sys, _ := newTestSystem(t)
	cfg := sys.Sched.Config()

	fLow := rde.Freshness{Nfq: 10, Nft: 1000} // Nfq << α·Nft
	fHigh := rde.Freshness{Nfq: 900, Nft: 1000}

	// Hybrid elasticity → S3-NI.
	if st := sys.Sched.Decide(fLow, false); st != S3NI {
		t.Fatalf("hybrid low-fresh = %v, want S3-NI", st)
	}
	// Batch always ETLs.
	if st := sys.Sched.Decide(fLow, true); st != S2 {
		t.Fatalf("batch = %v, want S2", st)
	}
	// High freshness share → S2.
	if st := sys.Sched.Decide(fHigh, false); st != S2 {
		t.Fatalf("high-fresh = %v, want S2", st)
	}
	// Elasticity off → S3-IS.
	cfg.Elasticity = false
	if err := sys.Sched.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if st := sys.Sched.Decide(fLow, false); st != S3IS {
		t.Fatalf("no-elasticity = %v, want S3-IS", st)
	}
	// Co-location mode → S1.
	cfg.Elasticity = true
	cfg.Mode = ModeColocation
	if err := sys.Sched.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if st := sys.Sched.Decide(fLow, false); st != S1 {
		t.Fatalf("co-location mode = %v, want S1", st)
	}
	// α = 0 always prefers S2 when any fresh data exists.
	cfg.Alpha = 0
	if err := sys.Sched.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if st := sys.Sched.Decide(fLow, false); st != S2 {
		t.Fatalf("α=0 = %v, want S2", st)
	}
}

func TestPrimeReplicasSetsFreshnessRateOne(t *testing.T) {
	sys, _ := newTestSystem(t)
	res := sys.PrimeReplicas()
	if res.Bytes == 0 || res.InsertedRows == 0 {
		t.Fatalf("prime copied nothing: %+v", res)
	}
	f := sys.X.MeasureFreshness(sys.OLTPE.Tables(), ch.TOrderLine, 3)
	if f.Rate < 0.999 || f.Nft != 0 {
		t.Fatalf("after prime: rate=%v Nft=%d, want 1 and 0", f.Rate, f.Nft)
	}
}

func TestRunQueryAdaptive(t *testing.T) {
	sys, db := newTestSystem(t)
	sys.PrimeReplicas()
	q := db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0))

	// The tiny test database saturates its update working set instantly,
	// which drives Nfq/Nft high; raise α so the small delta still reads as
	// "not worth an ETL" and Algorithm 2 picks the hybrid state.
	cfgHi := sys.Sched.Config()
	cfgHi.Alpha = 0.95
	if err := sys.Sched.SetConfig(cfgHi); err != nil {
		t.Fatal(err)
	}

	// Small delta: hybrid state (S3-NI under the config), split access,
	// no ETL.
	sys.InjectTransactions(20)
	rep2, _, err := sys.RunQueryContext(context.Background(), q, QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.State != S3NI {
		t.Fatalf("query state = %v, want S3-NI", rep2.State)
	}
	if rep2.ETLSeconds != 0 {
		t.Fatal("hybrid state must not ETL")
	}
	if rep2.Method != rde.ReadSplit {
		t.Fatalf("method = %v, want split", rep2.Method)
	}
	if rep2.ExecSeconds <= 0 || rep2.ResponseSeconds < rep2.ExecSeconds {
		t.Fatalf("timing wrong: %+v", rep2)
	}
	if rep2.Nfq <= 0 || rep2.Nft < rep2.Nfq {
		t.Fatalf("freshness accounting: Nfq=%d Nft=%d", rep2.Nfq, rep2.Nft)
	}

	// With α forced to 0 any fresh data triggers the ETL path (S2).
	cfg := sys.Sched.Config()
	cfg.Alpha = 0
	if err := sys.Sched.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	sys.InjectTransactions(10)
	rep3, _, err := sys.RunQueryContext(context.Background(), q, QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.State != S2 {
		t.Fatalf("α=0 state = %v, want S2", rep3.State)
	}
	if rep3.ETLBytes == 0 || rep3.ETLSeconds <= 0 {
		t.Fatalf("S2 must pay an ETL: %+v", rep3)
	}
	// Results only grow with inserts.
	if rep3.Result.Rows[0][1] < rep2.Result.Rows[0][1] {
		t.Fatal("count shrank after inserts")
	}
}

func TestRunQueryForcedStates(t *testing.T) {
	sys, db := newTestSystem(t)
	sys.InjectTransactions(10)
	q := db.Stamped("Q1", ch.Q1Args(0))

	var counts []float64
	for _, st := range []State{S1, S2, S3IS, S3NI} {
		rep, _, err := sys.RunQueryContext(context.Background(), q, QueryOptions{ForceState: ForcedState(st)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.State != st {
			t.Fatalf("forced %v, got %v", st, rep.State)
		}
		var total float64
		for _, row := range rep.Result.Rows {
			total += row[5]
		}
		counts = append(counts, total)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("states disagree on result: %v", counts)
		}
	}
}

func TestRunQueryForcedMethodFullRemote(t *testing.T) {
	sys, db := newTestSystem(t)
	sys.InjectTransactions(5)
	q := db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0))
	rep, _, err := sys.RunQueryContext(context.Background(), q, QueryOptions{
		ForceState:  ForcedState(S3IS),
		ForceMethod: ForcedMethod(rde.ReadSnapshot),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != rde.ReadSnapshot {
		t.Fatalf("method = %v", rep.Method)
	}
	// Full remote: all payload bytes on the OLTP socket.
	if rep.Stats.BytesAt[0] == 0 || rep.Stats.BytesAt[1] != 0 {
		t.Fatalf("bytes = %v, want all on socket 0", rep.Stats.BytesAt)
	}
	if rep.CrossBytes == 0 {
		t.Fatal("remote read must cross the interconnect")
	}
}

func TestOLTPInterferenceReported(t *testing.T) {
	sys, db := newTestSystem(t)
	rep, _, err := sys.RunQueryContext(context.Background(), db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{ForceState: ForcedState(S1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OLTPDuringTPS >= rep.OLTPBaselineTPS {
		t.Fatalf("query must depress OLTP throughput: %v >= %v",
			rep.OLTPDuringTPS, rep.OLTPBaselineTPS)
	}
	if rep.OLTPBaselineTPS <= 0 {
		t.Fatal("baseline TPS must be positive")
	}
}

func TestBatchSkipSwitchReusesSnapshot(t *testing.T) {
	sys, db := newTestSystem(t)
	q := db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0))
	rep1, set, err := sys.RunQueryContext(context.Background(), q, QueryOptions{Batch: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.SyncSeconds <= 0 {
		t.Fatal("sync must cost simulated time")
	}
	sys.InjectTransactions(10)
	rep2, _, err := sys.RunQueryContext(context.Background(), q, QueryOptions{Batch: true}, set)
	if err != nil {
		t.Fatal(err)
	}
	// Same snapshot: same result despite new inserts.
	if rep1.Result.Rows[0][1] != rep2.Result.Rows[0][1] {
		t.Fatalf("batch snapshot drifted: %v vs %v",
			rep1.Result.Rows[0][1], rep2.Result.Rows[0][1])
	}
	if rep2.SyncSeconds != 0 {
		t.Fatal("skipped switch must not charge sync time")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(2, 14)
	cfg.Alpha = 1.5
	if cfg.Validate() == nil {
		t.Fatal("alpha > 1 accepted")
	}
	cfg = DefaultConfig(2, 14)
	cfg.ElasticCores = -1
	if cfg.Validate() == nil {
		t.Fatal("negative elastic cores accepted")
	}
}

// TestMetricsShowALeakedSnapshot: version chains trim to the oldest active
// snapshot, so a transaction nobody finishes must be visible from Metrics.
func TestMetricsShowALeakedSnapshot(t *testing.T) {
	sys, _ := newTestSystem(t)
	defer sys.Close()
	sys.InjectTransactions(200)
	quiet := sys.Metrics()
	if quiet.SnapshotLag != 0 {
		t.Fatalf("snapshot lag with nothing active = %d", quiet.SnapshotLag)
	}
	if quiet.VersionRows == 0 {
		t.Fatal("NewOrder updated districts and stock but no version is reported")
	}

	leaked := sys.OLTPE.Manager().Begin()
	sys.InjectTransactions(200)
	held := sys.Metrics()
	if held.SnapshotLag < 200 {
		t.Fatalf("snapshot lag behind a leaked transaction = %d, want >= 200", held.SnapshotLag)
	}
	if held.VersionRows <= quiet.VersionRows+200 {
		t.Fatalf("versions %d -> %d: chains were not held for the leaked snapshot", quiet.VersionRows, held.VersionRows)
	}
	if !strings.Contains(held.String(), "oldest snapshot lag") {
		t.Fatalf("snapshot lag not rendered:\n%s", held)
	}

	leaked.Abort()
	sys.InjectTransactions(200)
	after := sys.Metrics()
	if after.SnapshotLag != 0 {
		t.Fatalf("snapshot lag after the leak ended = %d", after.SnapshotLag)
	}
	if after.VersionRows >= held.VersionRows {
		t.Fatalf("versions %d -> %d: chains did not collapse after the leak ended", held.VersionRows, after.VersionRows)
	}
}
