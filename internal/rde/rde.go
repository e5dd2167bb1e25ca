// Package rde implements the Resource and Data Exchange engine (§3.4): the
// integration layer that synchronizes the twin instances through the
// update-indication bits and then switches the OLTP active instance — the
// inactive instance is made current before it becomes visible, so the sync
// takes no record lock — performs delta-ETL into the OLAP replicas,
// measures freshness, and builds the access paths (olap.Source) each
// system state prescribes.
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
)

// Exchange is the RDE engine.
//
// Each table's ScanLatch (on its handle) orders in-flight analytical scans
// (readers) against writers that mutate cells a scan could be reading
// without atomics: the twin-instance sync writes, and the switch after it
// re-activates, the instance a prior query snapshotted, and the delta-ETL
// overwrites updated replica rows in place. Writers take a table's latch
// exclusively only when the table has in-place updates
// (Table.UpdateCount > 0) — for insert-only tables every write lands on
// rows beyond any scan's watermark, so their scans are never waited on.
type Exchange struct {
	OLTP *oltp.Engine

	// OLTPSocket hosts the twin instances and index; OLAPSocket hosts the
	// OLAP replicas. At bootstrap each engine gets one full socket (§5.1).
	OLTPSocket, OLAPSocket int

	// exchangeMu serializes switch+sync cycles. ETLs are serialized by
	// their callers (core's admitMu, or a single-threaded loader).
	exchangeMu sync.Mutex

	// probe, when set, fires at named internal points: "switch" after a
	// table's instance switch, inside the commit barrier, "etl" between a
	// table's update copy and its insert copy. The crash harness injects
	// a panicking probe to model process death mid-exchange; production
	// leaves it nil.
	probe atomic.Pointer[func(point, table string)]

	// lifetime counters (diagnostics and tests)
	switches, syncedRows, barrierRows, etlBytes atomic.Int64
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
// held, the table's instance cannot be synced-and-re-activated and its
// replica's updated rows cannot be overwritten by ETL, so the scan's
// non-atomic block reads stay race-free even for update workloads.
func (x *Exchange) BeginScan(table string) func() {
	l := &x.OLTP.Table(table).ScanLatch
	l.RLock()
	return l.RUnlock
}

// Snapshot is one table's share of a SnapshotSet: its now-inactive instance.
type Snapshot struct {
	Handle *oltp.TableHandle
	Inst   *columnar.Instance
	// Rows is the snapshot row count.
	Rows int64
}

// SnapshotSet is the outcome of switching every requested table at one
// commit: a transaction is in every table's snapshot or in none.
type SnapshotSet struct {
	// Snaps holds one snapshot per table, in the order they were given.
	Snaps []Snapshot
	// SwitchTS is the transaction-manager clock at the cut: every commit
	// up to it is in the snapshots, every later one in none of them.
	SwitchTS uint64
	// CopiedRows is how many records the twin-instance sync propagated;
	// BarrierRows is how many of them were copied with commits held at the
	// gate, the rest while they flowed.
	CopiedRows, BarrierRows int64
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

// SwitchAndSync brings the inactive instance of every table up to date and
// then switches all of them at one commit (§3.2: the switch "returns the
// starting address of the inactive instance when no active OLTP worker
// thread is using it any more").
func (x *Exchange) SwitchAndSync(tables []*oltp.TableHandle) *SnapshotSet {
	return x.SwitchAndSyncAt(tables, nil)
}

// SwitchAndSyncAt is SwitchAndSync with atCut, when non-nil, run on the
// set at the cut itself, where it must not wait for a scan latch.
//
// Commits still flow while the active instances' update bits are drained
// into the inactive ones: a bit is cleared before its row is read and set
// after a cell is stored, so a row committed during its copy is marked
// again. Then, inside one txn.Manager.CommitBarrier, the bits set meanwhile
// are drained, every table is flipped and SwitchTS is drawn. A transaction
// never sees an instance that lacks a committed value, and the sync never
// writes a row a transaction could be writing.
func (x *Exchange) SwitchAndSyncAt(tables []*oltp.TableHandle, atCut func(*SnapshotSet)) *SnapshotSet {
	// One exchange at a time: concurrent cycles would hand out overlapping
	// snapshots and sync into an instance the other is flipping.
	x.exchangeMu.Lock()
	defer x.exchangeMu.Unlock()
	set := &SnapshotSet{Snaps: make([]Snapshot, len(tables))}
	// Updated tables: the sync writes, and the flip then opens to
	// transactions, the instance a prior query may still be scanning — wait
	// for those scans to drain. Insert-only tables have nothing to sync and
	// switch without waiting.
	latched := make([]*oltp.TableHandle, 0, 16) // stays on the stack: a defer per table would not
	defer func() {
		for _, h := range latched {
			h.ScanLatch.Unlock()
		}
	}()
	for _, h := range tables {
		if h.Table().UpdateCount() > 0 {
			h.ScanLatch.Lock()
			latched = append(latched, h)
		}
	}
	drain := func() (copied int64) {
		for _, h := range tables {
			t := h.Table() // no record lock: no transaction touches an inactive instance
			copied += int64(t.SyncTo(t.ActiveIndex(), func(int64) func() { return func() {} }))
		}
		return copied
	}
	set.CopiedRows = drain()
	x.OLTP.Manager().CommitBarrier(func() {
		set.BarrierRows = drain()
		set.CopiedRows += set.BarrierRows
		for i, h := range tables {
			sw := h.Table().Switch()
			set.Snaps[i] = Snapshot{Handle: h, Inst: sw.Snapshot, Rows: sw.SnapshotRows}
			x.fireProbe("switch", h.Table().Schema().Name)
		}
		set.SwitchTS = x.OLTP.Manager().Now()
		if atCut != nil {
			atCut(set)
		}
	})
	x.switches.Add(1)
	x.syncedRows.Add(set.CopiedRows)
	x.barrierRows.Add(set.BarrierRows)
	return set
}

// ETLResult summarizes one delta-ETL.
type ETLResult struct {
	// Bytes is the logical volume moved: every absorbed row at full width,
	// whether its cells were copied or listed.
	Bytes int64
	// AliasedBytes is the part of Bytes the replica did not copy because
	// its chunk is the snapshot's own: chunks both twins still shared when
	// the replica reached them.
	AliasedBytes int64
	UpdatedRows  int64
	InsertedRows int64
}

// ETL brings the fresh delta of every snapshotted table into its OLAP
// replica: updated rows are copied individually (guided by the
// update-indication bits), inserted rows in bulk — a chunk both twins
// still share is listed rather than copied — then the replica watermark
// advances. Bits for records updated after the snapshot are preserved for
// the next ETL rather than lost.
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
				res.addUpdates(snap, set.SwitchTS, rep, repRows)
			}()
		} else {
			res.addUpdates(snap, set.SwitchTS, rep, repRows)
		}
		x.fireProbe("etl", t.Schema().Name)
		if snap.Rows > repRows {
			res.add(rep.CopyInserts(snap.Inst, repRows, snap.Rows))
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
func (res *ETLResult) addUpdates(snap *Snapshot, switchTS uint64, rep *columnar.Replica, repRows int64) {
	t := snap.Handle.Table()
	bits := t.DirtyOLAP()
	bits.ForEachSet(func(i int) {
		row := int64(i)
		if row >= snap.Rows {
			return // postdates the snapshot; keep for next time
		}
		bits.Clear(i)
		if t.RowTS(row) > switchTS {
			// Re-updated after the snapshot: keep the record fresh for
			// the next ETL; copying the (older) snapshot value now
			// would only waste interconnect bandwidth. A word flagged
			// Applying compares greater too, rightly: flags go on inside
			// the commit gate and switchTS was drawn at the barrier, so
			// the commit applying now lies after the cut.
			bits.Set(i)
			return
		}
		if row < repRows {
			res.add(rep.CopyRow(snap.Inst, row))
			res.UpdatedRows++
		}
	})
}

// add counts bytes absorbed, aliased of them listed instead of copied.
func (res *ETLResult) add(bytes, aliased int64) {
	res.Bytes += bytes
	res.AliasedBytes += aliased
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
// both engines access memory allocated by the OLTP engine. The replica is
// priced as one area on the OLAP socket, as the paper places it, though
// the chunks it lists with the twins are the twins' memory.
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

// BarrierRows reports how many of the lifetime synced rows were copied
// inside the commit barrier: the work committers were held at the gate for.
func (x *Exchange) BarrierRows() int64 { return x.barrierRows.Load() }
