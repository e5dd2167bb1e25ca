// Package rde implements the Resource and Data Exchange engine (§3.4): the
// integration layer that switches the OLTP active instance, synchronizes
// the twin instances through the update-indication bits, performs
// delta-ETL into the OLAP replicas, measures freshness, and builds the
// access paths (olap.Source) each system state prescribes.
//
// The exchange keeps no catalog of its own. A table's OLAP replica and its
// scan latch are created with the table and live on its oltp.TableHandle;
// the exchange reaches them through the handles it is given. It also
// prices nothing: it reports rows and bytes moved, and internal/core turns
// those into modeled seconds under the placement a query was admitted with.
package rde

import (
	"fmt"
	"sync"
	"sync/atomic"

	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/txn"
)

// Exchange is the RDE engine.
//
// Each table's ScanLatch (on its handle) orders in-flight analytical scans
// (readers) against writers that mutate cells a scan could be reading
// without atomics: the twin-instance sync after a switch re-activates the
// instance a prior query snapshotted, and the delta-ETL overwrites updated
// replica rows in place. Writers take a table's latch exclusively only
// when the table has in-place updates (Table.UpdateCount > 0) — for
// insert-only tables every write lands on rows beyond any scan's
// watermark, so their scans are never waited on.
type Exchange struct {
	OLTP *oltp.Engine

	// OLTPSocket hosts the twin instances and index; OLAPSocket hosts the
	// OLAP replicas. At bootstrap each engine gets one full socket (§5.1).
	OLTPSocket, OLAPSocket int

	exchangeMu sync.Mutex // serializes switch+sync/ETL cycles

	// probe, when set, fires at named internal points: "switch" after a
	// table's instance switch but before the twin sync, "etl" between a
	// table's update copy and its insert copy. The crash harness injects
	// a panicking probe to model process death mid-exchange; production
	// leaves it nil.
	probe atomic.Pointer[func(point, table string)]

	// lifetime counters (diagnostics and tests)
	switches, syncedRows, etlBytes atomic.Int64
}

// SetProbe installs (or, with nil, removes) the internal fault probe.
func (x *Exchange) SetProbe(fn func(point, table string)) {
	if fn == nil {
		x.probe.Store(nil)
		return
	}
	x.probe.Store(&fn)
}

// fireProbe invokes the installed probe, if any.
func (x *Exchange) fireProbe(point, table string) {
	if fn := x.probe.Load(); fn != nil {
		(*fn)(point, table)
	}
}

// New wires an exchange over the OLTP engine's tables. The OLTP engine
// keeps socket oltpSocket, the OLAP engine olapSocket.
func New(ol *oltp.Engine, oltpSocket, olapSocket int) *Exchange {
	return &Exchange{OLTP: ol, OLTPSocket: oltpSocket, OLAPSocket: olapSocket}
}

// BeginScan registers an in-flight analytical scan over the named table's
// snapshot instance and replica, and returns the release function. While
// held, the table's instance cannot be re-activated-and-synced and its
// replica's updated rows cannot be overwritten by ETL, so the scan's
// non-atomic block reads stay race-free even for update workloads.
func (x *Exchange) BeginScan(table string) func() {
	l := &x.OLTP.Table(table).ScanLatch
	l.RLock()
	return l.RUnlock
}

// Snapshot is one table's consistent snapshot after an instance switch.
type Snapshot struct {
	Handle *oltp.TableHandle
	Inst   *columnar.Instance
	// Rows is the snapshot row count.
	Rows int64
	// SwitchTS is the transaction-manager clock at the switch; rows with a
	// newer commit timestamp postdate the snapshot.
	SwitchTS uint64
}

// SnapshotSet is the outcome of switching every requested table.
type SnapshotSet struct {
	// Snaps holds one snapshot per table, in the order they were switched.
	Snaps []Snapshot
	// CopiedRows is how many records the twin-instance sync propagated.
	CopiedRows int64
}

// Snap returns the snapshot for a table name, or nil.
func (s *SnapshotSet) Snap(name string) *Snapshot {
	for i := range s.Snaps {
		if s.Snaps[i].Handle.Table().Schema().Name == name {
			return &s.Snaps[i]
		}
	}
	return nil
}

// SwitchAndSync instructs the OLTP engine to switch the active instance of
// every table and immediately propagates divergent records to the new
// active instance, taking per-record locks through the shared lock table
// so copies never race committing transactions (§3.4).
func (x *Exchange) SwitchAndSync(tables []*oltp.TableHandle) *SnapshotSet {
	return x.switchAndSync(tables, true)
}

// SwitchAndSyncQuiesced is SwitchAndSync for callers that have excluded
// commit application (txn.Manager.CommitBarrier): no commit is mid-apply,
// so cells are stable and the twin sync skips the per-record locks —
// which would deadlock against a committer already holding record locks
// while blocked on the barrier.
func (x *Exchange) SwitchAndSyncQuiesced(tables []*oltp.TableHandle) *SnapshotSet {
	return x.switchAndSync(tables, false)
}

func (x *Exchange) switchAndSync(tables []*oltp.TableHandle, recordLocks bool) *SnapshotSet {
	// One exchange at a time: concurrent switch+sync cycles would hand out
	// overlapping snapshots and race the twin synchronization.
	x.exchangeMu.Lock()
	defer x.exchangeMu.Unlock()
	set := &SnapshotSet{Snaps: make([]Snapshot, 0, len(tables))}
	locks := x.OLTP.Manager().Locks()
	for _, h := range tables {
		func() {
			t := h.Table()
			// Updated tables: the switch re-activates the instance a
			// prior query may still be scanning, after which transactions
			// and the sync below write into it — wait for those scans to
			// drain. Insert-only tables switch without waiting.
			if t.UpdateCount() > 0 {
				h.ScanLatch.Lock()
				defer h.ScanLatch.Unlock()
			}
			ts := x.OLTP.Manager().Now()
			sw := t.Switch()
			x.fireProbe("switch", t.Schema().Name)
			tabID := h.Ref.ID
			lock := func(row int64) func() {
				k := txn.LockKey{Tab: tabID, Row: row}
				locks.AcquireSync(k)
				return func() { locks.Release(k) }
			}
			if !recordLocks {
				lock = func(int64) func() { return func() {} }
			}
			copied := t.SyncTo(sw.SnapshotIndex, lock)
			set.CopiedRows += int64(copied)
			set.Snaps = append(set.Snaps, Snapshot{
				Handle:   h,
				Inst:     sw.Snapshot,
				Rows:     sw.SnapshotRows,
				SwitchTS: ts,
			})
		}()
	}
	x.switches.Add(1)
	x.syncedRows.Add(set.CopiedRows)
	return set
}

// ETLResult summarizes one delta-ETL.
type ETLResult struct {
	Bytes        int64
	UpdatedRows  int64
	InsertedRows int64
}

// ETL copies the fresh delta of every snapshotted table into its OLAP
// replica: updated rows individually (guided by the update-indication
// bits), inserted rows in bulk, then advances the replica watermark.
// Bits for records updated after the snapshot are preserved for the next
// ETL rather than lost.
func (x *Exchange) ETL(set *SnapshotSet) ETLResult {
	var res ETLResult
	for i := range set.Snaps {
		snap := &set.Snaps[i]
		t := snap.Handle.Table()
		rep := snap.Handle.Replica
		repRows := rep.Rows()
		if t.UpdateCount() > 0 {
			// CopyRow overwrites replica rows below the watermark that a
			// concurrent replica scan may be reading; wait those scans
			// out. Insert-only tables only append past every scan's
			// watermark and need no exclusion.
			func() {
				snap.Handle.ScanLatch.Lock()
				defer snap.Handle.ScanLatch.Unlock()
				res.addUpdates(snap, t, rep, repRows)
			}()
		} else {
			res.addUpdates(snap, t, rep, repRows)
		}
		x.fireProbe("etl", t.Schema().Name)
		if snap.Rows > repRows {
			res.Bytes += rep.CopyInserts(snap.Inst, repRows, snap.Rows)
			res.InsertedRows += snap.Rows - repRows
		}
	}
	x.etlBytes.Add(res.Bytes)
	return res
}

// addUpdates drains the table's update-indication bits, copying eligible
// updated rows into the replica (the in-place half of the delta-ETL). A
// bit at or above the replica watermark belongs to a row updated before
// its first ETL: it is cleared without a copy, the insert copy carries the
// row.
func (res *ETLResult) addUpdates(snap *Snapshot, t *columnar.Table, rep *columnar.Replica, repRows int64) {
	bits := t.DirtyOLAP()
	bits.ForEachSet(func(i int) {
		row := int64(i)
		if row >= snap.Rows {
			return // postdates the snapshot; keep for next time
		}
		bits.Clear(i)
		if t.RowTS(row) > snap.SwitchTS {
			// Re-updated after the snapshot: keep the record fresh for
			// the next ETL; copying the (older) snapshot value now
			// would only waste interconnect bandwidth.
			bits.Set(i)
			return
		}
		if row < repRows {
			res.Bytes += rep.CopyRow(snap.Inst, row)
			res.UpdatedRows++
		}
	})
}

// Freshness is the scheduler's driving metric (§4.2).
type Freshness struct {
	// Nfq is the fresh data the OLAP engine must obtain to satisfy the
	// current query with freshness-rate 1: the full-row bytes of the fact
	// table's fresh records (the ETL granularity is whole records). As
	// inserts accumulate while the bounded update working-set saturates,
	// Nfq/Nft approaches 1 and Algorithm 2 migrates to S2 (§4.2).
	Nfq int64
	// NfqColumns is the same measure restricted to the columns the query
	// scans — the fresh bytes actually crossing the interconnect under
	// split access (Figure 4's x-axis).
	NfqColumns int64
	// Nft is the fresh bytes needed to update the whole OLAP instance.
	Nft int64
	// QueryFreshRows / QueryUpdatedRows describe the query's fact table.
	QueryFreshRows   int64
	QueryUpdatedRows int64
	// Rate is the freshness-rate metric: identical tuples over total
	// tuples between the OLAP replicas and the active OLTP instances.
	Rate float64
}

// MeasureFreshness computes Nfq for a query over factTable touching nCols
// columns, and Nft and Rate across all tables, relative to the OLAP
// replicas. An empty factTable measures the system-wide quantities only
// (Nfq and the per-query fields stay zero) — the facade's Freshness probe
// with no query in hand.
func (x *Exchange) MeasureFreshness(tables []*oltp.TableHandle, factTable string, nCols int) Freshness {
	var f Freshness
	var totalRows, freshRows int64
	for _, h := range tables {
		st := h.Fresh()
		fresh := st.FreshRows()
		schema := h.Table().Schema()
		f.Nft += fresh * schema.RowBytes()
		totalRows += st.Rows
		freshRows += fresh
		if schema.Name == factTable {
			f.QueryFreshRows = fresh
			f.QueryUpdatedRows = st.UpdatedRows
			f.Nfq = fresh * schema.RowBytes()
			f.NfqColumns = fresh * int64(nCols) * columnar.WordBytes
		}
	}
	f.Rate = FreshRate(freshRows, totalRows)
	return f
}

// FreshRate is the freshness-rate metric over a row population: the
// share of replica-identical tuples, 1 for an empty population.
func FreshRate(fresh, rows int64) float64 {
	if rows > 0 {
		return float64(rows-fresh) / float64(rows)
	}
	return 1
}

// TableFreshness measures one table's freshness in isolation — the
// measure above over that table alone: the rate of replica-identical
// tuples over the table's total tuples, and as Nfq and Nft the full-row
// fresh bytes an ETL of just this table would copy. Workloads that never
// touch orderline (payment-only mixes, custom fact tables) read their
// real staleness here instead of a system-wide blend.
func (x *Exchange) TableFreshness(h *oltp.TableHandle) Freshness {
	return x.MeasureFreshness([]*oltp.TableHandle{h}, h.Table().Schema().Name, 0)
}

// AccessMethod selects how a query reads its fact table.
type AccessMethod int8

const (
	// ReadReplica scans the OLAP replica only (after ETL; state S2).
	ReadReplica AccessMethod = iota
	// ReadSnapshot scans the whole OLTP snapshot instance (states S1,
	// S3-NI without split, S3-IS full-remote).
	ReadSnapshot
	// ReadSplit scans the OLAP replica for cold rows and the OLTP snapshot
	// for fresh rows (the split-access optimization, §5.2, valid only for
	// insert-only tables).
	ReadSplit
)

// String names the access method.
func (m AccessMethod) String() string {
	switch m {
	case ReadReplica:
		return "replica"
	case ReadSnapshot:
		return "snapshot"
	case ReadSplit:
		return "split"
	default:
		return fmt.Sprintf("method(%d)", int8(m))
	}
}

// SourceFor builds the olap.Source realizing the access method for the
// query's fact table. Data homed on the OLTP socket stays there even when
// memory ownership moves between engines, matching the paper's S1 where
// both engines access memory allocated by the OLTP engine.
func (x *Exchange) SourceFor(method AccessMethod, snap *Snapshot) olap.Source {
	t := snap.Handle.Table()
	rep := snap.Handle.Replica
	switch method {
	case ReadReplica:
		return olap.Source{Table: t, Parts: []olap.Part{
			{Data: rep, Lo: 0, Hi: rep.Rows(), Socket: x.OLAPSocket, Label: "olap-replica"},
		}}
	case ReadSnapshot:
		return olap.Source{Table: t, Parts: []olap.Part{
			{Data: snap.Inst, Lo: 0, Hi: snap.Rows, Socket: x.OLTPSocket, Label: "oltp-snapshot"},
		}}
	case ReadSplit:
		repRows := rep.Rows()
		if repRows > snap.Rows {
			repRows = snap.Rows
		}
		src := olap.Source{Table: t}
		if repRows > 0 {
			src.Parts = append(src.Parts, olap.Part{
				Data: rep, Lo: 0, Hi: repRows, Socket: x.OLAPSocket, Label: "olap-replica",
			})
		}
		if snap.Rows > repRows {
			src.Parts = append(src.Parts, olap.Part{
				Data: snap.Inst, Lo: repRows, Hi: snap.Rows, Socket: x.OLTPSocket, Label: "oltp-snapshot",
			})
		}
		return src
	default:
		panic(fmt.Sprintf("rde: unknown access method %d", method))
	}
}

// Counters reports lifetime statistics.
func (x *Exchange) Counters() (switches, syncedRows, etlBytes int64) {
	return x.switches.Load(), x.syncedRows.Load(), x.etlBytes.Load()
}
