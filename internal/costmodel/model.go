package costmodel

import (
	"math"

	"elastichtap/internal/topology"
)

// Model evaluates simulated durations on a fixed machine. It is stateless
// and safe for concurrent use; all contention inputs are explicit.
type Model struct {
	topo topology.Config
	p    Params
}

// New builds a model for the machine. It panics on invalid inputs because a
// misconfigured model poisons every downstream measurement.
func New(topo topology.Config, p Params) *Model {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Model{topo: topo, p: p}
}

// Topology returns the machine description.
func (m *Model) Topology() topology.Config { return m.topo }

// Params returns the calibration constants.
func (m *Model) Params() Params { return m.p }

// Usage reports the bandwidth a activity imposes on the machine while it
// runs, as utilization fractions in [0,1].
type Usage struct {
	// SocketBW[s] is the fraction of socket s's DRAM bandwidth consumed.
	SocketBW []float64
	// Interconnect is the fraction of one interconnect link consumed.
	Interconnect float64
}

// ZeroUsage returns an all-idle usage for the machine.
func (m *Model) ZeroUsage() Usage {
	return Usage{SocketBW: make([]float64, m.topo.Sockets)}
}

// Add returns the element-wise sum of two usages, clamped to 1.
func (u Usage) Add(v Usage) Usage {
	n := len(u.SocketBW)
	if len(v.SocketBW) > n {
		n = len(v.SocketBW)
	}
	out := Usage{SocketBW: make([]float64, n)}
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(u.SocketBW) {
			a = u.SocketBW[i]
		}
		if i < len(v.SocketBW) {
			b = v.SocketBW[i]
		}
		out.SocketBW[i] = clamp01(a + b)
	}
	out.Interconnect = clamp01(u.Interconnect + v.Interconnect)
	return out
}

// On returns the socket utilization (0 for out-of-range sockets).
func (u Usage) On(s int) float64 {
	if s < 0 || s >= len(u.SocketBW) {
		return 0
	}
	return u.SocketBW[s]
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ScanRequest describes one analytical pipeline execution for timing.
type ScanRequest struct {
	// Class selects the per-core processing rate.
	Class WorkClass
	// BytesAt[s] is the number of bytes homed on socket s that the pipeline
	// must read and process.
	BytesAt []int64
	// Workers is the OLAP core placement executing the pipeline.
	Workers topology.Placement
	// Background is bandwidth already consumed by other activity (OLTP).
	Background Usage
	// BroadcastBytes is extra data replicated over the interconnect to every
	// worker socket before probing (hash-join build side, Q19).
	BroadcastBytes int64
	// MeasuredRemoteBytesAt[s], when non-nil, is the measured payload homed
	// on socket s that remote workers actually consumed (the OLAP pool's
	// cross-socket work stealing). It informs the cross-traffic attribution
	// — CrossBytes reports at least the measured volume — while the
	// completion-time search stays on the modeled locality-aware routing,
	// keeping simulated durations deterministic.
	MeasuredRemoteBytesAt []int64
	// SortRows is the number of merged result rows an ordered (top-k)
	// query passes through its merge-side sort; zero for unordered
	// queries. Charged at Params.SortSecondsPerRow on top of the parallel
	// pipeline, since the ordered merge is single-threaded.
	SortRows int64
}

// MeasuredRemoteBytes returns the total measured cross-socket payload.
func (r ScanRequest) MeasuredRemoteBytes() int64 {
	var t int64
	for _, b := range r.MeasuredRemoteBytesAt {
		t += b
	}
	return t
}

// TotalBytes returns the payload size of the request.
func (r ScanRequest) TotalBytes() int64 {
	var t int64
	for _, b := range r.BytesAt {
		t += b
	}
	return t
}

// ScanResult is the outcome of timing one pipeline.
type ScanResult struct {
	// Seconds is the simulated pipeline duration.
	Seconds float64
	// Usage is the bandwidth footprint while the pipeline runs.
	Usage Usage
	// CrossBytes is how many payload bytes crossed the interconnect.
	CrossBytes int64
}

// OLAPScan times a pipeline with locality-and-load-aware block routing
// (§3.3): workers consume socket-local data first at up to their CPU rate,
// bounded by the socket's spare DRAM bandwidth; the remainder streams over
// the interconnect to remote workers. The duration is found by binary
// search on the smallest feasible completion time.
func (m *Model) OLAPScan(req ScanRequest) ScanResult {
	total := req.TotalBytes()
	if total == 0 && req.BroadcastBytes == 0 {
		return ScanResult{Usage: m.ZeroUsage()}
	}
	if req.Workers.Total() == 0 {
		return ScanResult{Seconds: math.Inf(1), Usage: m.ZeroUsage()}
	}
	rate := m.p.PerCoreRate[req.Class]

	// Broadcast phase: the build side travels once per remote worker socket.
	var bcast float64
	var bcastBytes int64
	if req.BroadcastBytes > 0 {
		remoteSockets := 0
		for s, c := range req.Workers.PerSocket {
			if c > 0 && int64OrZero(req.BytesAt, s) == 0 {
				remoteSockets++
			}
		}
		if remoteSockets == 0 {
			remoteSockets = max(len(req.Workers.Sockets())-1, 0)
		}
		bcastBytes = req.BroadcastBytes * int64(float64(remoteSockets)*m.p.BroadcastBuildPenalty)
		if bcastBytes > 0 {
			bcast = float64(bcastBytes) / m.icBW()
		}
	}

	lo, hi := 0.0, 4*float64(total)/m.icBW()+float64(total)/(rate)+1e-9
	if hi <= lo {
		hi = 1e-6
	}
	var cross int64
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		ok, c := m.scanFeasible(req, rate, mid)
		if ok {
			hi = mid
			cross = c
		} else {
			lo = mid
		}
	}
	t := hi
	u := m.ZeroUsage()
	if t > 0 {
		for s := range u.SocketBW {
			u.SocketBW[s] = clamp01(float64(int64OrZero(req.BytesAt, s)) / t / m.topo.LocalBW)
		}
		u.Interconnect = clamp01(float64(cross) / t / m.icBW())
	}
	// Attribute at least the measured stolen volume to the interconnect:
	// work stealing may route more payload across sockets than the model's
	// optimal split would need.
	if measured := req.MeasuredRemoteBytes(); measured > cross {
		cross = measured
	}
	// The ordered merge sorts after the parallel pipeline drains, one row
	// at a time on the merging goroutine.
	sortSecs := float64(req.SortRows) * m.p.SortSecondsPerRow
	return ScanResult{Seconds: t + bcast + sortSecs, Usage: u, CrossBytes: cross + bcastBytes}
}

// scanFeasible reports whether all payload bytes can be drained within t
// seconds, and how many bytes must cross the interconnect to do so.
func (m *Model) scanFeasible(req ScanRequest, rate, t float64) (bool, int64) {
	n := m.topo.Sockets
	cpuCap := make([]float64, n) // bytes of CPU work each socket's workers can do
	memCap := make([]float64, n) // bytes readable from each socket's DRAM
	egress := make([]float64, n) // bytes each socket can ship out
	for s := 0; s < n; s++ {
		cpuCap[s] = float64(req.Workers.On(s)) * rate * t
		avail := m.topo.LocalBW * (1 - req.Background.On(s))
		if min := m.topo.LocalBW * m.p.MinAvailBWFraction; avail < min {
			avail = min
		}
		memCap[s] = avail * t
		icAvail := m.icBW() * (1 - req.Background.Interconnect)
		if min := m.icBW() * m.p.MinAvailBWFraction; icAvail < min {
			icAvail = min
		}
		egress[s] = icAvail * t
	}
	// First pass: every socket's workers consume their local data, so no
	// leftover can steal CPU a socket needs for its own payload.
	leftover := make([]float64, n)
	for s := 0; s < n; s++ {
		d := float64(int64OrZero(req.BytesAt, s))
		local := math.Min(d, math.Min(cpuCap[s], memCap[s]))
		cpuCap[s] -= local
		memCap[s] -= local
		leftover[s] = d - local
	}
	// Second pass: route leftovers over the interconnect to sockets with
	// spare CPU, bounded by the home socket's remaining DRAM bandwidth and
	// its egress capacity.
	var cross float64
	for s := 0; s < n; s++ {
		for w := 0; w < n && leftover[s] > 1e-9; w++ {
			if w == s {
				continue
			}
			y := math.Min(leftover[s], math.Min(cpuCap[w], math.Min(memCap[s], egress[s])))
			if y <= 0 {
				continue
			}
			leftover[s] -= y
			cpuCap[w] -= y
			memCap[s] -= y
			egress[s] -= y
			cross += y
		}
		if leftover[s] > 1e-6 {
			return false, 0
		}
	}
	return true, int64(cross)
}

func (m *Model) icBW() float64 { return m.topo.InterconnectBW }

func int64OrZero(xs []int64, i int) int64 {
	if i < 0 || i >= len(xs) {
		return 0
	}
	return xs[i]
}

// OLTPLoad describes the transactional engine's situation for timing.
type OLTPLoad struct {
	// Workers is the OLTP core placement.
	Workers topology.Placement
	// HomeSocket is where the OLTP instances and index live.
	HomeSocket int
	// Background is bandwidth consumed by concurrent OLAP activity.
	Background Usage
	// ExtraPerTxnSeconds adds per-transaction overhead (CoW page copies).
	ExtraPerTxnSeconds float64
}

// OLTPResult is the outcome of evaluating the transactional engine.
type OLTPResult struct {
	// TPS is transactions per second across all workers.
	TPS float64
	// Usage is the DRAM/interconnect footprint of running at TPS.
	Usage Usage
}

// OLTPThroughput evaluates the OLTP engine under the given placement and
// interference: per-core service time = CPU + dependent memory accesses at
// local or remote latency, inflated quadratically with the home socket's
// bus utilization, plus a concave cross-socket-atomics penalty when the
// worker pool spans sockets (§5.2 S1 discussion).
func (m *Model) OLTPThroughput(load OLTPLoad) OLTPResult {
	total := load.Workers.Total()
	if total == 0 {
		return OLTPResult{Usage: m.ZeroUsage()}
	}
	remote := 0
	for s, c := range load.Workers.PerSocket {
		if s != load.HomeSocket {
			remote += c
		}
	}
	remoteFrac := float64(remote) / float64(total)
	atomics := 1 + m.p.AtomicsPenalty*math.Sqrt(remoteFrac)

	homeUtil := load.Background.On(load.HomeSocket)
	icUtil := load.Background.Interconnect
	var tps float64
	for s, c := range load.Workers.PerSocket {
		if c == 0 {
			continue
		}
		var access float64
		if s == load.HomeSocket {
			access = m.p.LocalAccessSeconds * (1 + m.p.MemContentionK*homeUtil*homeUtil)
		} else {
			// Remote workers traverse the interconnect and the home DRAM.
			congestion := math.Max(homeUtil, icUtil)
			access = m.p.RemoteAccessSeconds * (1 + m.p.MemContentionK*congestion*congestion)
		}
		service := (m.p.TxnCPUSeconds+float64(m.p.TxnMemAccesses)*access)*atomics + load.ExtraPerTxnSeconds
		tps += float64(c) / service
	}
	u := m.ZeroUsage()
	bw := tps * float64(m.p.TxnMemAccesses) * m.p.TxnBytesPerAccess
	u.SocketBW[load.HomeSocket] = clamp01(bw / m.topo.LocalBW)
	if remoteFrac > 0 {
		u.Interconnect = clamp01(bw * remoteFrac / m.icBW())
	}
	return OLTPResult{TPS: tps, Usage: u}
}

// ETLTime returns the duration of copying `bytes` of fresh data from the
// OLTP socket into the OLAP instance using `cores` OLAP cores. The RDE uses
// OLAP compute for the copy because the query cannot start before the data
// lands (§3.4 S2); throughput is core-limited up to the interconnect cap.
func (m *Model) ETLTime(bytes int64, cores int) float64 {
	if bytes <= 0 {
		return 0
	}
	if cores <= 0 {
		cores = 1
	}
	rate := math.Min(float64(cores)*m.p.ETLCopyRatePerCore, m.icBW())
	return float64(bytes) / rate
}

// SyncTime returns the duration of the twin-instance synchronization after
// an active-instance switch: scan the update-indication bitmap for
// totalRows rows and copy modifiedRows tuples between the instances.
// Calibrated to ~10ms per million modified tuples (§3.4).
func (m *Model) SyncTime(modifiedRows, totalRows int64) float64 {
	bitmapBytes := float64(totalRows) / 8
	return float64(modifiedRows)/m.p.SyncRowsPerSec + bitmapBytes/m.p.SyncBitScanBytesPerSec
}

// CoWOverhead returns the per-transaction overhead when a CoW snapshot is
// live and each transaction dirties `pagesPerTxn` not-yet-copied pages.
func (m *Model) CoWOverhead(pagesPerTxn float64) float64 {
	if pagesPerTxn < 0 {
		pagesPerTxn = 0
	}
	return pagesPerTxn * m.p.CoWPageCopySeconds
}
