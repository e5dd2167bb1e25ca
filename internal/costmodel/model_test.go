package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"elastichtap/internal/topology"
)

func testModel() *Model {
	return New(topology.DefaultConfig(), DefaultParams())
}

func place(perSocket ...int) topology.Placement {
	return topology.Placement{PerSocket: perSocket}
}

func TestOLTPBaselineNearTwoMTPS(t *testing.T) {
	// 14 local workers, no interference: ~2 MTPS (paper §1, Figure 1).
	m := testModel()
	res := m.OLTPThroughput(OLTPLoad{Workers: place(14, 0), HomeSocket: 0})
	if res.TPS < 1.5e6 || res.TPS > 2.5e6 {
		t.Fatalf("baseline TPS = %v, want ~2e6", res.TPS)
	}
	if res.Usage.On(0) <= 0 || res.Usage.On(0) > 0.3 {
		t.Fatalf("OLTP bandwidth usage = %v, want small fraction", res.Usage.On(0))
	}
}

func TestOLTPRemotePenalty(t *testing.T) {
	m := testModel()
	local := m.OLTPThroughput(OLTPLoad{Workers: place(14, 0), HomeSocket: 0})
	remote := m.OLTPThroughput(OLTPLoad{Workers: place(0, 14), HomeSocket: 0})
	drop := 1 - remote.TPS/local.TPS
	// Paper: ~37% drop when fully traded, no OLAP (§5.2 S1).
	if drop < 0.25 || drop > 0.55 {
		t.Fatalf("remote drop = %.0f%%, want 25-55%%", drop*100)
	}
}

func TestOLTPInterferenceHurts(t *testing.T) {
	m := testModel()
	bg := m.ZeroUsage()
	bg.SocketBW[0] = 0.9
	quiet := m.OLTPThroughput(OLTPLoad{Workers: place(14, 0), HomeSocket: 0})
	noisy := m.OLTPThroughput(OLTPLoad{Workers: place(14, 0), HomeSocket: 0, Background: bg})
	if noisy.TPS >= quiet.TPS {
		t.Fatal("bandwidth interference must reduce TPS")
	}
	drop := 1 - noisy.TPS/quiet.TPS
	if drop < 0.1 {
		t.Fatalf("drop under 90%% bus utilization = %.0f%%, too small", drop*100)
	}
}

func TestOLAPScanInterconnectBound(t *testing.T) {
	m := testModel()
	// All data on socket 0, all workers on socket 1: interconnect-bound.
	const bytes = 16e9
	res := m.OLAPScan(ScanRequest{
		Class:   ScanReduce,
		BytesAt: []int64{int64(bytes), 0},
		Workers: place(0, 14),
	})
	want := bytes / m.topo.InterconnectBW
	if res.Seconds < want*0.95 || res.Seconds > want*1.3 {
		t.Fatalf("remote scan = %vs, want ~%vs", res.Seconds, want)
	}
	if res.CrossBytes < int64(bytes)*9/10 {
		t.Fatalf("cross bytes = %d, want ~%d", res.CrossBytes, int64(bytes))
	}
}

func TestOLAPScanLocalWorkersImprove(t *testing.T) {
	m := testModel()
	bytes := []int64{32e9, 0}
	remoteOnly := m.OLAPScan(ScanRequest{Class: ScanReduce, BytesAt: bytes, Workers: place(0, 14)})
	traded := m.OLAPScan(ScanRequest{Class: ScanReduce, BytesAt: bytes, Workers: place(4, 10)})
	if traded.Seconds >= remoteOnly.Seconds {
		t.Fatal("data-local workers must speed up the scan")
	}
	// Plateau: beyond saturation more local cores stop helping much (§5.2).
	six := m.OLAPScan(ScanRequest{Class: ScanReduce, BytesAt: bytes, Workers: place(6, 8)})
	twelve := m.OLAPScan(ScanRequest{Class: ScanReduce, BytesAt: bytes, Workers: place(12, 2)})
	gain := (six.Seconds - twelve.Seconds) / six.Seconds
	if gain > 0.15 {
		t.Fatalf("gain from 6 to 12 local cores = %.0f%%, expected plateau", gain*100)
	}
}

func TestOLAPScanNoWorkers(t *testing.T) {
	m := testModel()
	res := m.OLAPScan(ScanRequest{Class: ScanReduce, BytesAt: []int64{1e9, 0}, Workers: place(0, 0)})
	if !math.IsInf(res.Seconds, 1) {
		t.Fatalf("no workers should yield +Inf, got %v", res.Seconds)
	}
	empty := m.OLAPScan(ScanRequest{Class: ScanReduce, Workers: place(0, 1)})
	if empty.Seconds != 0 {
		t.Fatalf("empty scan = %v, want 0", empty.Seconds)
	}
}

func TestBroadcastChargesInterconnect(t *testing.T) {
	m := testModel()
	base := m.OLAPScan(ScanRequest{Class: JoinProbe, BytesAt: []int64{1e9, 0}, Workers: place(0, 14)})
	bc := m.OLAPScan(ScanRequest{
		Class: JoinProbe, BytesAt: []int64{1e9, 0}, Workers: place(0, 14),
		BroadcastBytes: 1e9,
	})
	if bc.Seconds <= base.Seconds {
		t.Fatal("broadcast must add time")
	}
}

func TestETLTime(t *testing.T) {
	m := testModel()
	one := m.ETLTime(12e9, 1)
	many := m.ETLTime(12e9, 14)
	// One core is copy-rate-limited and must be slower than many cores,
	// which saturate the interconnect.
	if one <= many {
		t.Fatalf("ETL with 1 core (%v) should be slower than with 14 (%v)", one, many)
	}
	// With many cores the copy is interconnect-bound.
	if want := 12e9 / m.topo.InterconnectBW; many < want*0.99 {
		t.Fatalf("ETL faster than the interconnect: %v < %v", many, want)
	}
	if m.ETLTime(0, 4) != 0 {
		t.Fatal("zero bytes must be free")
	}
}

func TestSyncTimeMatchesPaperClaim(t *testing.T) {
	// "~10ms to sync around 1 million modified tuples in a database of
	// over 1.8 billion records" (§3.4).
	m := testModel()
	got := m.SyncTime(1_000_000, 1_800_000_000)
	if got < 0.008 || got > 0.030 {
		t.Fatalf("sync time = %vs, want ~0.01-0.02s", got)
	}
}

func TestCoWOverhead(t *testing.T) {
	m := testModel()
	if m.CoWOverhead(0) != 0 {
		t.Fatal("zero pages must be free")
	}
	if m.CoWOverhead(-1) != 0 {
		t.Fatal("negative pages must clamp to zero")
	}
	if m.CoWOverhead(10) <= m.CoWOverhead(1) {
		t.Fatal("more pages must cost more")
	}
}

func TestQuickScanMonotoneInBytes(t *testing.T) {
	m := testModel()
	f := func(a, b uint32) bool {
		lo, hi := int64(a), int64(a)+int64(b)
		r1 := m.OLAPScan(ScanRequest{Class: ScanReduce, BytesAt: []int64{lo, 0}, Workers: place(2, 12)})
		r2 := m.OLAPScan(ScanRequest{Class: ScanReduce, BytesAt: []int64{hi, 0}, Workers: place(2, 12)})
		return r2.Seconds+1e-12 >= r1.Seconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickScanMonotoneInWorkers(t *testing.T) {
	m := testModel()
	f := func(w uint8) bool {
		k := int(w%13) + 1
		fewer := m.OLAPScan(ScanRequest{Class: ScanGroupBy, BytesAt: []int64{8e9, 0}, Workers: place(k, 0)})
		more := m.OLAPScan(ScanRequest{Class: ScanGroupBy, BytesAt: []int64{8e9, 0}, Workers: place(k+1, 0)})
		return more.Seconds <= fewer.Seconds+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOLTPMonotoneInWorkers(t *testing.T) {
	m := testModel()
	f := func(w uint8) bool {
		k := int(w%13) + 1
		fewer := m.OLTPThroughput(OLTPLoad{Workers: place(k, 0), HomeSocket: 0})
		more := m.OLTPThroughput(OLTPLoad{Workers: place(k+1, 0), HomeSocket: 0})
		return more.TPS >= fewer.TPS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.RemoteAccessSeconds = bad.LocalAccessSeconds / 2
	if bad.Validate() == nil {
		t.Fatal("remote < local latency must fail")
	}
	bad = DefaultParams()
	bad.PerCoreRate = map[WorkClass]float64{}
	if bad.Validate() == nil {
		t.Fatal("missing rates must fail")
	}
}

func TestMeasuredStealingInformsCrossBytes(t *testing.T) {
	m := testModel()
	// All payload local to socket 0, workers co-located: the model routes
	// nothing across sockets on its own.
	req := ScanRequest{
		Class:   ScanReduce,
		BytesAt: []int64{1 << 30, 0},
		Workers: place(14, 0),
	}
	base := m.OLAPScan(req)
	if base.CrossBytes != 0 {
		t.Fatalf("co-located scan modeled cross bytes: %d", base.CrossBytes)
	}
	// The pool measured stolen morsels anyway (e.g. a mid-query resize
	// moved workers to socket 1): CrossBytes reports the measured volume,
	// while the simulated duration stays on the deterministic model.
	req.MeasuredRemoteBytesAt = []int64{128 << 20, 0}
	meas := m.OLAPScan(req)
	if meas.CrossBytes != 128<<20 {
		t.Fatalf("cross bytes = %d, want measured 128MiB", meas.CrossBytes)
	}
	if meas.Seconds != base.Seconds {
		t.Fatalf("measured attribution changed the duration: %v != %v",
			meas.Seconds, base.Seconds)
	}
	// When the model already routes more than was measured, the larger
	// modeled figure wins.
	req2 := ScanRequest{
		Class:                 ScanReduce,
		BytesAt:               []int64{1 << 30, 0},
		Workers:               place(0, 14),
		MeasuredRemoteBytesAt: []int64{1024, 0},
	}
	remote := m.OLAPScan(req2)
	if remote.CrossBytes <= 1024 {
		t.Fatalf("remote scan must cross the interconnect: %d", remote.CrossBytes)
	}
}

func TestJoinProjectHeavierThanProbe(t *testing.T) {
	m := testModel()
	req := ScanRequest{Class: JoinProbe, BytesAt: []int64{1 << 30, 0}, Workers: place(4, 0)}
	probe := m.OLAPScan(req)
	req.Class = JoinProject
	project := m.OLAPScan(req)
	// Payload projection pushes fewer bytes per core-second than the
	// existence probe, so the same scan takes longer.
	if project.Seconds <= probe.Seconds {
		t.Fatalf("join-project (%v) not slower than join-probe (%v)",
			project.Seconds, probe.Seconds)
	}
	if JoinProject.String() != "join-project" {
		t.Fatalf("String() = %q", JoinProject.String())
	}
}

func TestSortRowsChargedPerRow(t *testing.T) {
	m := testModel()
	req := ScanRequest{Class: ScanGroupBy, BytesAt: []int64{1 << 30, 0}, Workers: place(4, 0)}
	base := m.OLAPScan(req)
	req.SortRows = 2_000_000
	sorted := m.OLAPScan(req)
	want := base.Seconds + 2e6*m.Params().SortSecondsPerRow
	if d := sorted.Seconds - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("sorted scan = %v, want %v (base %v + sort charge)",
			sorted.Seconds, want, base.Seconds)
	}
	// The sort runs on the merging goroutine: more workers do not shrink it.
	req.Workers = place(14, 0)
	wide := m.OLAPScan(req)
	reqNoSort := req
	reqNoSort.SortRows = 0
	wideBase := m.OLAPScan(reqNoSort)
	if d := (wide.Seconds - wideBase.Seconds) - 2e6*m.Params().SortSecondsPerRow; d > 1e-9 || d < -1e-9 {
		t.Fatalf("sort charge varied with the placement: %v", wide.Seconds-wideBase.Seconds)
	}
}
