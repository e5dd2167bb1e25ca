package elastichtap

import (
	"fmt"
	"time"

	"elastichtap/internal/ch"
	"elastichtap/internal/checkpoint"
	"elastichtap/internal/columnar"
	"elastichtap/internal/wal"
)

// Durability layer: a commit write-ahead log plus whole-database
// checkpoints, composing into crash recovery.
//
//	sys, _ := elastichtap.New()
//	db := sys.LoadCH(0.001, 42)
//	fs := elastichtap.DiskFS()
//	sys.EnableWAL(fs, "data", elastichtap.SyncAlways, 0)
//	sys.CheckpointDB(fs, "data")      // bootstrap image of the load
//	... workload runs, commits stream into the log under data ...
//	sys.CheckpointDB(fs, "data")      // later images truncate replay work
//
// After a crash:
//
//	sys2, info, _ := elastichtap.OpenFromDir(fs, "data")
//	// sys2 now holds every committed transaction: the latest complete
//	// checkpoint image plus the WAL suffix replayed above info.WALPos.

// FS is the filesystem surface the durability layer writes through.
// DiskFS returns the real one; any other implementation of the interface,
// an in-memory one for fault injection say, plugs in the same way.
type FS = wal.FS

// SyncPolicy selects when WAL appends are made durable.
type SyncPolicy = wal.SyncPolicy

// WAL sync policies.
const (
	// SyncAlways fsyncs before a commit acknowledges (group-committed).
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs at most once per configured interval.
	SyncInterval = wal.SyncInterval
	// SyncNever leaves fsync to checkpoints, which sync the log below
	// their position, and to closing the log (WAL().Close()).
	SyncNever = wal.SyncNever
)

// DiskFS returns the operating-system filesystem.
func DiskFS() FS { return wal.OSFS{} }

// EnableWAL attaches a commit write-ahead log under dir: every later
// commit appends its write set to the directory's log before applying,
// per the sync policy (interval is only read by SyncInterval). An existing
// log is scanned, truncated at its first corrupt or torn record, and
// appended to from there; one that exists but cannot be opened is an
// error. Call it after LoadCH and before the workload; the loaded data
// itself is persisted by the first CheckpointDB, not the log.
func (s *System) EnableWAL(fs FS, dir string, policy SyncPolicy, interval time.Duration) error {
	l, err := checkpoint.OpenLog(fs, dir, policy, interval)
	if err != nil {
		return fmt.Errorf("elastichtap: EnableWAL: %w", err)
	}
	s.inner.OLTPE.Manager().SetWAL(l)
	return nil
}

// WAL returns the attached commit log, or nil.
func (s *System) WAL() *wal.Log { return s.inner.OLTPE.Manager().WAL() }

// Sizing extras keys persisted in whole-database manifests.
const (
	extraDay        = "ch.day"
	extraWarehouses = "ch.warehouses"
	extraDistricts  = "ch.districts_per_wh"
	extraCustomers  = "ch.customers_per_district"
	extraItems      = "ch.items"
	extraOrders     = "ch.orders_per_district"
	extraOrderLines = "ch.order_lines_per_order"
)

// CheckpointDB streams a whole-database checkpoint into dir (next to the
// WAL): one ckpt-<seq> directory holding every table's v2 checkpoint file
// and a manifest binding them to a WAL position, the transaction clock,
// the commit count, per-table OLAP replica watermarks and staleness bits.
// The capture is transaction consistent (commit barrier) and the
// streaming proceeds from pinned snapshot instances while transactions
// continue. Returns the checkpoint's sequence number.
func (s *System) CheckpointDB(fs FS, dir string) (uint64, error) {
	if s.db == nil {
		return 0, fmt.Errorf("elastichtap: CheckpointDB: %w", ErrNoDatabase)
	}
	sz := s.db.Sizing
	extras := map[string]int64{
		extraDay:        s.db.Day(),
		extraWarehouses: int64(sz.Warehouses),
		extraDistricts:  int64(sz.DistrictsPerWH),
		extraCustomers:  int64(sz.CustomersPerDistrict),
		extraItems:      int64(sz.Items),
		extraOrders:     int64(sz.OrdersPerDistrict),
		extraOrderLines: int64(sz.OrderLinesPerOrder),
	}
	return s.inner.CheckpointDB(fs, dir, extras)
}

// RecoveryInfo describes what OpenFromDir reconstructed.
type RecoveryInfo struct {
	// Seq is the checkpoint sequence restored from.
	Seq uint64
	// WALPos is the log offset replay started at (the manifest's).
	WALPos int64
	// ValidPos is the offset after the last intact log record; bytes
	// beyond it were a torn tail or corruption and were discarded.
	ValidPos int64
	// Replayed counts the committed transactions re-applied from the log.
	Replayed int
	// Truncated reports whether the log ended in a torn or corrupt record
	// rather than a clean end of file.
	Truncated bool
	// Commits is the restored lifetime commit count.
	Commits uint64
}

// OpenFromDir builds a fresh system and restores the database from the
// durability directory: the latest complete checkpoint image (torn
// checkpoint directories are skipped), then the WAL suffix above the
// manifest's position, truncating mentally at the first corrupt or torn
// record. A log, image file or directory that exists but cannot be opened
// or listed fails the recovery rather than counting as absent. Indexes are
// rebuilt and replica watermarks, staleness bits, the transaction clock
// and the commit count restored, so analytics, freshness metrics and
// further transactions continue exactly where the crashed process's
// durable state ended.
//
// The recovery itself is read-only — the same directory can be opened
// any number of times, concurrently or repeatedly, with identical
// results. To resume logging commits, call EnableWAL afterwards (it
// truncates the torn tail, if any, and appends from ValidPos).
func OpenFromDir(fs FS, dir string, opts ...Option) (*System, RecoveryInfo, error) {
	var info RecoveryInfo
	seq, man, ok, err := checkpoint.Latest(fs, dir)
	if err != nil {
		return nil, info, fmt.Errorf("elastichtap: OpenFromDir: %w", err)
	}
	if !ok {
		return nil, info, fmt.Errorf("elastichtap: OpenFromDir: no complete checkpoint under %s", dir)
	}
	info.Seq = seq
	info.WALPos = man.WALPos

	sizing := ch.Sizing{
		Warehouses:           int(man.Extras[extraWarehouses]),
		DistrictsPerWH:       int(man.Extras[extraDistricts]),
		CustomersPerDistrict: int(man.Extras[extraCustomers]),
		Items:                int(man.Extras[extraItems]),
		OrdersPerDistrict:    int(man.Extras[extraOrders]),
		OrderLinesPerOrder:   int(man.Extras[extraOrderLines]),
	}
	if err := checkSizing(sizing, man); err != nil {
		return nil, info, fmt.Errorf("elastichtap: OpenFromDir: %w", err)
	}

	s, err := New(opts...)
	if err != nil {
		return nil, info, err
	}
	db := ch.Attach(s.inner.OLTPE, sizing)
	db.SetDay(man.Extras[extraDay])
	s.db = db
	if err := checkTableOrder(db, man); err != nil {
		s.Close()
		return nil, info, fmt.Errorf("elastichtap: OpenFromDir: %w", err)
	}

	mgr := s.inner.OLTPE.Manager()
	mgr.RestoreState(man.Clock, man.Commits)
	table := func(name string) *columnar.Table {
		if h := db.Handle(name); h != nil {
			return h.Table()
		}
		return nil
	}
	// Each log record goes through Manager.Replay, which applies it with
	// the live commit's own code, in log order and at its commit timestamp,
	// so inserts reassign identical row IDs and staleness bits evolve
	// identically.
	st, err := checkpoint.Recover(fs, dir, seq, man, table, mgr.Replay)
	if err != nil {
		s.Close()
		return nil, info, fmt.Errorf("elastichtap: OpenFromDir: %w", err)
	}
	info.ValidPos, info.Replayed, info.Truncated = st.ValidPos, st.Replayed, st.Truncated

	db.RebuildIndexes()

	// Replica watermarks: each replica absorbs again the prefix it had
	// absorbed — listing the chunks the twins share, copying the rest.
	// Content for updated rows comes from the restored (fully applied)
	// table rather than the historical ETL — unobservable, because those
	// rows keep their staleness bits and are re-copied before any replica
	// read (S2 ETLs first; split access excludes updated tables).
	for _, te := range man.Tables {
		h := db.Handle(te.Name)
		h.Replica.CopyInserts(h.Table().Active(), 0, te.ReplicaRows)
	}

	info.Commits = mgr.Commits()
	return s, info, nil
}

// checkTableOrder refuses a manifest whose table list is not the engine's
// tables in creation order: the log names a table by its index there.
func checkTableOrder(db *ch.DB, man *checkpoint.Manifest) error {
	tables := db.Tables()
	if len(man.Tables) != len(tables) {
		return fmt.Errorf("manifest lists %d tables, the engine has %d", len(man.Tables), len(tables))
	}
	for i, te := range man.Tables {
		if name := tables[i].Table().Schema().Name; te.Name != name {
			return fmt.Errorf("manifest lists %q as table %d, the engine %q", te.Name, i, name)
		}
	}
	return nil
}

// checkSizing refuses sizing extras that are missing, or that would size
// the tables past what the image holds. ch.Attach gives every table room
// for its loaded rows before a byte of it is restored, and a database only
// grows, so a sizing whose tables would hold more than twice the image's
// rows is damage — the factor two covers history and new-order, which
// start empty but are sized like customer and orders. The products are
// taken in floating point, where hostile extras cannot overflow them.
func checkSizing(s ch.Sizing, man *checkpoint.Manifest) error {
	if s.Warehouses <= 0 || s.DistrictsPerWH <= 0 || s.CustomersPerDistrict <= 0 ||
		s.Items <= 0 || s.OrdersPerDistrict <= 0 || s.OrderLinesPerOrder <= 0 {
		return fmt.Errorf("manifest missing sizing extras")
	}
	var rows float64
	for _, te := range man.Tables {
		rows += float64(te.Rows)
	}
	w, d := float64(s.Warehouses), float64(s.DistrictsPerWH)
	items, orders := float64(s.Items), w*d*float64(s.OrdersPerDistrict)
	sized := w + w*d + 2*w*d*float64(s.CustomersPerDistrict) + 2*orders +
		orders*float64(s.OrderLinesPerOrder) + items + w*items
	if sized > 2*rows+1<<10 {
		return fmt.Errorf("manifest sizing makes room for %.0f rows, the image holds %.0f", sized, rows)
	}
	return nil
}
