package core

import (
	"sort"

	"elastichtap/internal/metrics"
	"elastichtap/internal/rde"
)

// Metrics collects a consistent observability snapshot from every engine.
func (s *System) Metrics() metrics.Snapshot {
	st, oltpP, olapP := s.Sched.Placements()
	snap := metrics.Snapshot{
		Commits:      s.OLTPE.Manager().Commits(),
		Aborts:       s.OLTPE.Manager().Aborts(),
		Retried:      s.OLTPE.Workers().Retried(),
		Failed:       s.OLTPE.Workers().Failed(),
		State:        st.String(),
		OLTPCores:    oltpP.Total(),
		OLAPCores:    olapP.Total(),
		OLAPPoolSize: s.OLAPE.PoolSize(),
	}
	// MinActive first: the clock only moves forward, so the difference
	// cannot go negative.
	mgr := s.OLTPE.Manager()
	oldest := mgr.MinActive()
	snap.SnapshotLag = mgr.Now() - oldest
	tables := s.OLTPE.Tables()
	snap.Tables = len(tables)
	for _, h := range tables {
		t := h.Table()
		snap.TotalRows += t.Rows()
		snap.DirtyRows += int64(t.Active().DirtyCount()) // nothing updates an inactive instance
		snap.FreshRows += h.Fresh().FreshRows()
		snap.VersionRows += h.Ref.Versions.Len()
		shared, private := t.TwinBytes()
		snap.TwinSharedBytes += shared
		snap.TwinPrivateBytes += private
		shared, own := h.Replica.Bytes()
		snap.ReplicaSharedBytes += shared
		snap.ReplicaOwnBytes += own
	}
	switches, synced, etl := s.X.Counters()
	snap.Switches = switches
	snap.SyncedRows = synced
	snap.BarrierSyncedRows = s.X.BarrierRows()
	snap.ETLBytes = etl
	// Join the workload manager's admission counters with the OLAP pool's
	// measured per-tenant morsel dispatch. Tenants the pool has seen but
	// the manager has not (direct engine submissions) still get a row.
	dispatch := s.OLAPE.TenantDispatch()
	for _, ts := range s.WM.Stats() {
		snap.Tenants = append(snap.Tenants, metrics.Tenant{
			Name:              ts.Name,
			Weight:            ts.Weight,
			Running:           ts.Running,
			Queued:            ts.Queued,
			Admitted:          ts.Admitted,
			Rejected:          ts.Rejected,
			AdmissionWait:     ts.AdmissionWait,
			MorselsDispatched: dispatch[ts.Name],
			BytesScanned:      ts.BytesScanned,
		})
		delete(dispatch, ts.Name)
	}
	for name, morsels := range dispatch {
		snap.Tenants = append(snap.Tenants, metrics.Tenant{Name: name, MorselsDispatched: morsels})
	}
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Name < snap.Tenants[j].Name })
	snap.FreshnessRate = rde.FreshRate(snap.FreshRows, snap.TotalRows)
	return snap
}
