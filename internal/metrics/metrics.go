// Package metrics aggregates observability counters from every engine into
// one snapshot, the basis for the operator-facing status report and for
// assertions in integration tests.
package metrics

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Tenant is one workload-manager tenant's observability row: admission
// occupancy and counters from the workload manager joined with the OLAP
// pool's measured morsel dispatch.
type Tenant struct {
	Name   string
	Weight int
	// Running and Queued are current admission-gate occupancy gauges.
	Running, Queued int
	// Admitted and Rejected count admissions; Rejected are the typed
	// ErrOverloaded backpressure rejections (queue depth or byte budget).
	Admitted, Rejected uint64
	// AdmissionWait is cumulative wall time spent queued for admission.
	AdmissionWait time.Duration
	// MorselsDispatched is the pool's measured dispatch counter — the
	// quantity weighted-fair shares are asserted on.
	MorselsDispatched int64
	// BytesScanned is the lifetime scanned-byte total charged against the
	// tenant's quota windows (cost-model-scaled units).
	BytesScanned int64
}

// Snapshot is a point-in-time view of the whole system.
type Snapshot struct {
	// Transactional engine.
	Commits uint64
	Aborts  uint64
	Retried uint64
	Failed  uint64

	// Storage.
	Tables      int
	TotalRows   int64
	DirtyRows   int64 // update-indication bits pending instance sync
	FreshRows   int64 // rows the OLAP replicas lack
	VersionRows int   // live MVCC versions: those a snapshot may still read and what later pushes have yet to reclaim; 0 under one client, whose commits push none, and more while SnapshotLag is large
	// SnapshotLag is the transaction clock minus the oldest active begin
	// timestamp (txn.Manager.MinActive). Pre-image pushes reclaim versions
	// back to that snapshot and no further — the pushed row's own and
	// those of the rows queued oldest on its shard — so a leaked
	// transaction shows here, and in VersionRows, rather than only in a
	// heap profile.
	SnapshotLag uint64
	// TwinSharedBytes and TwinPrivateBytes are where the twin instances'
	// cells are (columnar.Table.TwinBytes, summed over tables): chunks both
	// instances list, held once, and chunks an in-place update has split,
	// held by each. Half of the private bytes is what the second twin costs.
	TwinSharedBytes  int64
	TwinPrivateBytes int64
	// ReplicaSharedBytes and ReplicaOwnBytes are where the OLAP replicas'
	// cells are (columnar.Replica.Bytes, summed over tables): chunks a twin
	// lists as well, held once with it, and chunks only the replica lists.
	// The own bytes are what the replica costs on top of the twins.
	ReplicaSharedBytes int64
	ReplicaOwnBytes    int64

	// Resource and data exchange.
	Switches   int64
	SyncedRows int64
	// BarrierSyncedRows is the share of SyncedRows copied inside the
	// switch's commit barrier: how long committers were held at the gate.
	BarrierSyncedRows int64
	ETLBytes          int64

	// Scheduler.
	State         string
	OLTPCores     int
	OLAPCores     int
	OLAPPoolSize  int // live OLAP pool workers (tracks OLAPCores after resizes)
	FreshnessRate float64

	// Tenants are the workload manager's per-tenant rows, sorted by name.
	Tenants []Tenant
}

// WriteTo renders the snapshot as an aligned table.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rows := []struct {
		k string
		v any
	}{
		{"state", s.State},
		{"oltp cores", s.OLTPCores},
		{"olap cores", s.OLAPCores},
		{"olap pool workers", s.OLAPPoolSize},
		{"commits", s.Commits},
		{"aborts", s.Aborts},
		{"txn retries", s.Retried},
		{"txn failures", s.Failed},
		{"tables", s.Tables},
		{"total rows", s.TotalRows},
		{"dirty rows (twin sync pending)", s.DirtyRows},
		{"fresh rows (replica lag)", s.FreshRows},
		{"mvcc versions", s.VersionRows},
		{"oldest snapshot lag (timestamps)", s.SnapshotLag},
		{"twin bytes shared (held once)", s.TwinSharedBytes},
		{"twin bytes private (split by updates)", s.TwinPrivateBytes},
		{"replica bytes shared with a twin", s.ReplicaSharedBytes},
		{"replica bytes of its own", s.ReplicaOwnBytes},
		{"instance switches", s.Switches},
		{"synced rows", s.SyncedRows},
		{"synced rows inside the commit barrier", s.BarrierSyncedRows},
		{"etl bytes", s.ETLBytes},
		{"freshness rate", fmt.Sprintf("%.4f", s.FreshnessRate)},
	}
	var n int64
	for _, r := range rows {
		m, err := fmt.Fprintf(tw, "%s\t%v\n", r.k, r.v)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	if err := tw.Flush(); err != nil {
		return n, err
	}
	if len(s.Tenants) == 0 {
		return n, nil
	}
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	m, err := fmt.Fprintf(tw, "\ntenant\tweight\trunning\tqueued\tadmitted\trejected\twait\tmorsels\tbytes\n")
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, t := range s.Tenants {
		m, err := fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%v\t%d\t%d\n",
			t.Name, t.Weight, t.Running, t.Queued, t.Admitted, t.Rejected,
			t.AdmissionWait.Round(time.Millisecond), t.MorselsDispatched, t.BytesScanned)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, tw.Flush()
}

// String renders the snapshot (fmt.Stringer).
func (s Snapshot) String() string {
	var b strings.Builder
	_, _ = s.WriteTo(&b)
	return b.String()
}
