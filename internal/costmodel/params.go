// Package costmodel charges simulated time for memory traffic and compute on
// the modeled NUMA machine (internal/topology). It replaces the hardware
// effects the paper measures directly — core pinning, per-socket DRAM
// bandwidth, interconnect saturation, cache-coherence penalties — which the
// Go runtime scheduler hides.
//
// The engines execute real work on real data; they feed measured byte
// counts and placements into this model, which returns deterministic
// simulated durations and per-socket bandwidth usage. The usage in turn
// drives interference between the OLTP and the OLAP engine, which is the
// phenomenon the paper's scheduler manages.
package costmodel

import "fmt"

// WorkClass describes the per-core CPU intensity of an analytical operator
// pipeline. Scan-dominated pipelines process more bytes per second per core
// than group-by or join pipelines (§5.3: Q6 vs Q1 vs Q19).
type WorkClass int

const (
	// ScanReduce is a scan-filter-reduce pipeline (CH-Q6).
	ScanReduce WorkClass = iota
	// ScanGroupBy is a scan-filter-groupby pipeline (CH-Q1).
	ScanGroupBy
	// JoinProbe is a fact-dimension hash join probe pipeline whose probe
	// only tests existence (CH-Q19's semi form).
	JoinProbe
	// JoinProject is a fact-dimension hash join that also projects
	// dimension payload columns into downstream grouping and aggregation
	// (CH-Q3, CH-Q12): every matched row materializes payload values, so
	// it pushes fewer bytes per core-second than the existence probe.
	JoinProject
)

// String names the work class.
func (w WorkClass) String() string {
	switch w {
	case ScanReduce:
		return "scan-reduce"
	case ScanGroupBy:
		return "scan-groupby"
	case JoinProbe:
		return "join-probe"
	case JoinProject:
		return "join-project"
	default:
		return "unknown"
	}
}

// Params holds every calibration constant of the model. All rates are
// bytes/second, all latencies seconds. Zero values are invalid; use
// DefaultParams and override selectively.
type Params struct {
	// PerCoreRate[w] is the bytes/s one core can push through a pipeline of
	// work class w when memory is not the bottleneck.
	PerCoreRate map[WorkClass]float64

	// ETLCopyRatePerCore is the effective bytes/s one core achieves copying
	// tuples from the OLTP socket into the OLAP instance (read remote +
	// transform + write local). The RDE performs ETL with OLAP cores (§3.4).
	ETLCopyRatePerCore float64

	// SyncRowsPerSec is the twin-instance synchronization rate in rows/s:
	// traversing set update-indication bits and copying the modified tuples
	// between the instances on the same socket. Calibrated to the paper's
	// "10ms to sync around 1 million modified tuples" (§3.4).
	SyncRowsPerSec float64

	// SyncBitScanBytesPerSec is the rate of scanning the update-indication
	// bitmap itself (sequential, cheap).
	SyncBitScanBytesPerSec float64

	// TxnCPUSeconds is the pure compute portion of one NewOrder-class
	// transaction on an uncontended local core.
	TxnCPUSeconds float64

	// TxnMemAccesses is the number of dependent (random) memory accesses a
	// transaction performs; each costs Local/RemoteAccessSeconds.
	TxnMemAccesses int

	// LocalAccessSeconds / RemoteAccessSeconds are per-access latencies for
	// socket-local and cross-socket memory.
	LocalAccessSeconds  float64
	RemoteAccessSeconds float64

	// TxnBytesPerAccess converts transaction accesses into DRAM traffic
	// (cacheline granularity) for the bandwidth ledger.
	TxnBytesPerAccess float64

	// MemContentionK scales OLTP memory-latency inflation with the square of
	// the bandwidth utilization of the socket it reads from: a saturated bus
	// queues random readers (§5.2 S1: "stress caused to the memory and the
	// interconnect bandwidth by the OLAP query").
	MemContentionK float64

	// AtomicsPenalty is the maximum relative service-time inflation from
	// cross-socket atomics when the OLTP worker pool spans sockets ([4] in
	// the paper). Applied as 1 + AtomicsPenalty*sqrt(remoteCoreFraction).
	AtomicsPenalty float64

	// CoWPageBytes and CoWPageCopySeconds model the hardware-supported
	// copy-on-write baseline of Figure 1: the first write to a page while a
	// snapshot is live copies the page.
	CoWPageBytes       int64
	CoWPageCopySeconds float64

	// BroadcastBuildPenalty is the extra interconnect traffic factor for
	// broadcast hash-join builds (Q19): the build side is replicated to
	// every socket that hosts probe workers.
	BroadcastBuildPenalty float64

	// SortSecondsPerRow charges the ordered (top-k) merge of sorted query
	// results: the merge runs single-threaded after the parallel pipeline,
	// so each merged row passing through the sort adds this much to the
	// pipeline duration regardless of the worker placement.
	SortSecondsPerRow float64

	// MinAvailBWFraction floors the local bandwidth available to a reader
	// class so the model never divides by zero under full contention.
	MinAvailBWFraction float64
}

// DefaultParams returns constants calibrated so that the paper's machine
// (topology.DefaultConfig) reproduces the published shapes:
//   - 14 OLTP workers, no OLAP: ~2 MTPS NewOrder (§1, Figure 1);
//   - OLAP scan saturates a socket with ~4-6 cores (Figures 3a, 3c);
//   - fully remote OLTP placement loses ~37% throughput (§5.2, S1);
//   - syncing 1M modified tuples ~10ms (§3.4).
func DefaultParams() Params {
	return Params{
		PerCoreRate: map[WorkClass]float64{
			ScanReduce:  14e9,
			ScanGroupBy: 6e9,
			JoinProbe:   5e9,
			JoinProject: 4e9,
		},
		ETLCopyRatePerCore:     1.2e9,
		SyncRowsPerSec:         1e8,
		SyncBitScanBytesPerSec: 60e9,
		TxnCPUSeconds:          4e-6,
		TxnMemAccesses:         40,
		LocalAccessSeconds:     80e-9,
		RemoteAccessSeconds:    130e-9,
		TxnBytesPerAccess:      64,
		MemContentionK:         2.0,
		AtomicsPenalty:         0.25,
		CoWPageBytes:           4096,
		CoWPageCopySeconds:     2.0e-6,
		BroadcastBuildPenalty:  1.0,
		SortSecondsPerRow:      50e-9,
		MinAvailBWFraction:     0.05,
	}
}

// Validate reports whether the parameter set is usable.
func (p Params) Validate() error {
	for _, w := range []WorkClass{ScanReduce, ScanGroupBy, JoinProbe, JoinProject} {
		if p.PerCoreRate[w] <= 0 {
			return errf("PerCoreRate[%v] must be positive", w)
		}
	}
	if p.SortSecondsPerRow < 0 {
		return errf("SortSecondsPerRow must be non-negative")
	}
	if p.ETLCopyRatePerCore <= 0 {
		return errf("ETLCopyRatePerCore must be positive")
	}
	if p.SyncRowsPerSec <= 0 {
		return errf("SyncRowsPerSec must be positive")
	}
	if p.TxnCPUSeconds <= 0 || p.TxnMemAccesses <= 0 {
		return errf("transaction cost constants must be positive")
	}
	if p.LocalAccessSeconds <= 0 || p.RemoteAccessSeconds < p.LocalAccessSeconds {
		return errf("access latencies must satisfy 0 < local <= remote")
	}
	if p.MinAvailBWFraction <= 0 || p.MinAvailBWFraction > 1 {
		return errf("MinAvailBWFraction must be in (0,1]")
	}
	return nil
}

type paramErr string

func (e paramErr) Error() string { return string(e) }

func errf(format string, args ...any) error {
	return paramErr("costmodel: " + fmt.Sprintf(format, args...))
}
