package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"elastichtap/internal/checkpoint"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/rde"
	"elastichtap/internal/topology"
	"elastichtap/internal/wal"
	"elastichtap/internal/workload"
)

// SystemConfig assembles a complete HTAP system.
type SystemConfig struct {
	// Topology describes the machine; defaults to the paper's 2x14 server.
	Topology topology.Config
	// Params calibrate the cost model; defaults to DefaultParams.
	Params costmodel.Params
	// Scheduler parameterizes Algorithms 1 and 2.
	Scheduler Config
	// OLTPSocket / OLAPSocket are the engines' home sockets.
	OLTPSocket, OLAPSocket int
	// ByteScale multiplies measured byte counts before they reach the cost
	// model, letting a laptop-sized database emulate the paper's SF-300
	// timings: shapes depend on ratios, which ByteScale preserves (see
	// package experiments, "Scale emulation"). 0 means 1.
	ByteScale float64
}

// DefaultSystemConfig returns the paper's evaluation setup.
func DefaultSystemConfig() SystemConfig {
	topo := topology.DefaultConfig()
	return SystemConfig{
		Topology:   topo,
		Params:     costmodel.DefaultParams(),
		Scheduler:  DefaultConfig(topo.Sockets, topo.CoresPerSocket),
		OLTPSocket: 0,
		OLAPSocket: 1,
		ByteScale:  1,
	}
}

// System is the assembled HTAP system: OLTP engine, OLAP engine, RDE
// exchange and the adaptive scheduler, over a modeled NUMA machine.
type System struct {
	Cfg   SystemConfig
	Model *costmodel.Model
	OLTPE *oltp.Engine
	OLAPE *olap.Engine
	X     *rde.Exchange
	Sched *Scheduler
	// WM is the multi-tenant workload manager: every query passes through
	// its tenant's admission queue (quotas, backpressure) before the
	// serialized scheduling protocol, and the tenant's weight drives the
	// OLAP pool's weighted-fair morsel dispatch. Untenanted contexts run
	// as the unlimited default tenant. Tests may swap in a manager with a
	// fake clock before issuing queries.
	WM *workload.Manager

	// admitMu serializes the per-query admission protocol — switch+sync,
	// freshness measurement, state migration, ETL and access-path build —
	// while executions proceed concurrently on the shared OLAP worker
	// pool once admitted.
	admitMu sync.Mutex

	// closed rejects new queries once Close has begun; closeOnce makes
	// Close idempotent and a barrier (concurrent callers all return only
	// after the pools are down).
	closed    atomic.Bool
	closeOnce sync.Once
}

// NewSystem bootstraps a system in state S2: each engine owns its socket,
// worker pools sized accordingly (§5.1). Engines that cannot be placed —
// a home socket outside the machine, or one socket for both — are an
// error here, not at the first migration.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.ByteScale <= 0 {
		cfg.ByteScale = 1
	}
	oltpE := oltp.NewEngine()
	olapE := olap.NewEngine(cfg.Topology.Sockets)
	// The one site where placements reach the OLAP pool: every migration —
	// the boot into S2, RunQuery's, anyone's Sched.MigrateTo — resizes it
	// immediately, so it sheds or gains workers while queries are still in
	// flight. The OLTP pool has no copy: InjectTransactions reads its count.
	sched, err := NewScheduler(cfg.Scheduler, cfg.Topology, cfg.OLTPSocket, cfg.OLAPSocket, olapE.SetPlacement)
	if err != nil {
		return nil, err
	}
	return &System{
		Cfg:   cfg,
		Model: costmodel.New(cfg.Topology, cfg.Params),
		OLTPE: oltpE,
		OLAPE: olapE,
		X:     rde.New(oltpE, cfg.OLTPSocket, cfg.OLAPSocket),
		Sched: sched,
		WM:    workload.New(),
	}, nil
}

// scale applies the byte-scale emulation factor.
func (s *System) scale(b int64) int64 { return int64(float64(b) * s.Cfg.ByteScale) }

// sumBytes totals a per-socket byte attribution.
func sumBytes(bs []int64) int64 {
	var n int64
	for _, b := range bs {
		n += b
	}
	return n
}

func (s *System) scaleAll(bs []int64) []int64 {
	out := make([]int64, len(bs))
	for i, b := range bs {
		out[i] = s.scale(b)
	}
	return out
}

// PrimeReplicas performs the initial synchronization of the OLAP replicas
// with the freshly loaded database, setting the freshness-rate to 1 before
// workload execution begins (§5.3: "we initialize the database ... before
// we synchronize the storage of both engines"). Call it once after loading
// and before running queries.
func (s *System) PrimeReplicas() rde.ETLResult {
	set := s.X.SwitchAndSync(s.OLTPE.Tables())
	return s.X.ETL(set)
}

// QueryOptions control one query's scheduling.
type QueryOptions struct {
	// ForceState pins the system state (static schedules in the figures);
	// nil lets Algorithm 2 decide.
	ForceState *State
	// ForceMethod pins the access method (Figure 4's full-remote series);
	// nil derives it from the state.
	ForceMethod *rde.AccessMethod
	// Batch marks the query as part of a batch (Algorithm 2's QueryBatch).
	Batch bool
}

// ForcedState is a convenience for building QueryOptions.
func ForcedState(st State) *State { return &st }

// ForcedMethod is a convenience for building QueryOptions.
func ForcedMethod(m rde.AccessMethod) *rde.AccessMethod { return &m }

// QueryReport is the outcome of scheduling and executing one query.
type QueryReport struct {
	Query  string
	State  State
	Method rde.AccessMethod
	// Tenant is the workload-manager tenant the query ran as ("default"
	// for untenanted callers).
	Tenant string

	// Simulated durations (seconds) from the cost model.
	ExecSeconds     float64 // pipeline execution
	ETLSeconds      float64 // delta copy before execution (S2 only)
	SyncSeconds     float64 // twin-instance sync at the switch
	ResponseSeconds float64 // what the client observes

	// OLTPBaselineTPS is the modeled throughput of the OLTP engine with no
	// concurrent query; OLTPDuringTPS is under this query's interference.
	OLTPBaselineTPS float64
	OLTPDuringTPS   float64

	// Freshness at scheduling time.
	Nfq, Nft  int64
	FreshRate float64

	// Execution facts.
	Result     olap.Result
	Stats      olap.Stats
	CrossBytes int64
	ETLBytes   int64

	// ScanUsage is the query's modeled bandwidth footprint; experiment
	// drivers reuse it to evaluate OLTP variants (e.g. CoW overhead).
	ScanUsage costmodel.Usage
}

// admission is the outcome of the serialized scheduling phase: everything
// a query needs to execute and be charged for.
type admission struct {
	set         *rde.SnapshotSet
	src         olap.Source
	state       State
	method      rde.AccessMethod
	fresh       rde.Freshness
	syncSeconds float64
	etlSeconds  float64
	etlBytes    int64
	oltpPlace   topology.Placement
	olapPlace   topology.Placement
	// release drops the fact table's scan pin; call it when the
	// execution finishes.
	release func()
}

// admitQuery runs the per-query protocol head under the admission lock:
// switch and sync the OLTP instances, measure freshness, decide and
// migrate state (Algorithms 1+2), optionally ETL, and build the access
// path. Placements are snapshotted under the same lock so the cost model
// charges the layout this query was admitted with, even when a concurrent
// query migrates the system afterwards. The context is observed between
// the protocol phases — after the queue wait, after switch+sync, and on
// either side of the ETL — so an expired deadline abandons admission at a
// consistent point: the exchange state left behind is exactly what the
// completed phases produced, and the next query proceeds from it.
func (s *System) admitQuery(ctx context.Context, q olap.Query, opt QueryOptions, snap *rde.SnapshotSet) (admission, error) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()

	adm := admission{set: snap}
	if err := ctx.Err(); err != nil { // cancelled while queued for admission
		return adm, olap.CancelErr(err)
	}
	if s.closed.Load() {
		return adm, fmt.Errorf("core: admit %s: %w", q.Name(), olap.ErrClosed)
	}
	tables := s.OLTPE.Tables()
	if adm.set == nil {
		adm.set = s.X.SwitchAndSync(tables)
		var snapRows int64
		for i := range adm.set.Snaps {
			snapRows += adm.set.Snaps[i].Rows
		}
		adm.syncSeconds = s.Model.SyncTime(adm.set.CopiedRows, snapRows) * s.Cfg.ByteScale
	}
	factSnap := adm.set.Snap(q.FactTable())
	if factSnap == nil {
		return adm, fmt.Errorf("core: no snapshot for fact table %q", q.FactTable())
	}
	if err := ctx.Err(); err != nil { // expired during switch+sync
		return adm, olap.CancelErr(err)
	}

	adm.fresh = s.X.MeasureFreshness(tables, q.FactTable(), len(q.Columns()))

	adm.state = s.Sched.Decide(adm.fresh, opt.Batch)
	if opt.ForceState != nil {
		adm.state = *opt.ForceState
	}
	s.Sched.MigrateTo(adm.state) // resizes both worker pools
	// One cut for all of this query's cost charging; a concurrent
	// migration can change the layout afterwards, but the model is never
	// handed one engine's cores from before it and the other's from after.
	_, adm.oltpPlace, adm.olapPlace = s.Sched.Placements()

	if adm.state == S2 {
		if err := ctx.Err(); err != nil { // expired before the ETL copy
			return adm, olap.CancelErr(err)
		}
		etl := s.X.ETL(adm.set)
		adm.etlBytes = etl.Bytes
		adm.etlSeconds = s.Model.ETLTime(s.scale(etl.Bytes), adm.olapPlace.On(s.Cfg.OLAPSocket))
		if err := ctx.Err(); err != nil { // expired mid-ETL; replicas are consistent
			return adm, olap.CancelErr(err)
		}
	}

	adm.method = s.chooseMethod(adm.state, adm.fresh)
	if opt.ForceMethod != nil {
		adm.method = *opt.ForceMethod
	}
	adm.src = s.X.SourceFor(adm.method, factSnap)
	// Pin the fact table against snapshot re-activation and in-place ETL
	// before admission ends: every writer cycle (query admissions,
	// CheckpointDB) serializes on admitMu, so no switch can slip in
	// between this RLock and the execution it protects.
	adm.release = s.X.BeginScan(q.FactTable())
	return adm, nil
}

// RunQueryContext drives the full per-query protocol of §3.4: switch and
// sync the OLTP instances, measure freshness, decide and migrate state
// (Algorithms 1+2), optionally ETL, build the access path, execute for
// real, and charge simulated time for every phase. Admission is
// serialized; the execution itself runs as a task on the shared OLAP
// worker pool, so concurrent callers interleave their morsels on the same
// workers and scheduler migrations resize the pool mid-query.
//
// A non-nil snap is the request to reuse it instead of switching the
// active instances again (subsequent queries of a batch); the set the
// query ran on is returned either way. A reused snapshot outlives exchange
// cycles other queries run in the meantime, so such a query must read the
// OLAP replica — the Batch flag's S2 path, which the facade's QueryBatch
// always takes. Reusing a set under a forced snapshot-reading state
// (S1/S3) while other queries run concurrently would scan an instance a
// later switch has re-activated for transaction writes.
//
// Cancellation is observed between admission phases and, during
// execution, at morsel boundaries: a cancelled query returns an error
// wrapping both olap.ErrCancelled and the context's cause within one
// morsel's work per active worker, its partial state is discarded, and
// the placement and pool remain consistent for subsequent queries.
func (s *System) RunQueryContext(ctx context.Context, q olap.Query, opt QueryOptions, snap *rde.SnapshotSet) (QueryReport, *rde.SnapshotSet, error) {
	if q == nil {
		return QueryReport{}, snap, fmt.Errorf("core: nil query")
	}
	if s.closed.Load() {
		return QueryReport{}, snap, fmt.Errorf("core: query %s: %w", q.Name(), olap.ErrClosed)
	}
	// Queries can carry a deferred construction error (olap.Invalid, or any
	// query exposing Err); surface it before touching the system.
	if v, ok := q.(interface{ Err() error }); ok {
		if err := v.Err(); err != nil {
			return QueryReport{}, snap, err
		}
	}

	// Workload-manager admission comes first: the tenant's concurrency
	// slot and quota check gate the serialized scheduling protocol, so an
	// overloaded tenant is rejected (typed ErrOverloaded, retry-after
	// metadata) before it can queue on admitMu, and a queued-but-unadmitted
	// query that is cancelled frees its slot without ever touching the
	// exchange. The grant is released with the scaled bytes the execution
	// actually scanned — the same emulated volume the cost model charges —
	// so per-tenant byte budgets account in cost-model units.
	tenant := workload.TenantFrom(ctx)
	grant, err := s.WM.Admit(ctx, tenant)
	if err != nil {
		// A context expiring while queued (or pre-cancelled) keeps the
		// session contract: the error wraps ErrCancelled and the cause.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = olap.CancelErr(err)
		}
		return QueryReport{}, snap, fmt.Errorf("core: query %s: %w", q.Name(), err)
	}

	adm, err := s.admitQuery(ctx, q, opt, snap)
	if err != nil {
		grant.Release(0)
		return QueryReport{}, adm.set, err
	}

	// The scan pin taken at admission holds through the execution:
	// switches and ETLs that would overwrite cells this scan reads wait
	// for release (no-op contention for insert-only fact tables).
	res, stats, err := s.OLAPE.ExecuteTenantContext(ctx, q, adm.src,
		olap.TenantInfo{Name: tenant, Weight: s.WM.Weight(tenant)})
	adm.release()
	if err != nil {
		grant.Release(0)
		return QueryReport{}, adm.set, err
	}
	grant.Release(s.scale(sumBytes(stats.BytesAt)))

	base := s.Model.OLTPThroughput(costmodel.OLTPLoad{
		Workers: adm.oltpPlace, HomeSocket: s.Cfg.OLTPSocket,
	})
	// BuildBytes is each join's logical broadcast volume — the build-side
	// rows a from-scratch build reads times the columns it touches —
	// whether this execution built the table, extended a kept one or
	// reused it as it was (query.Compiled.Prepare): the model prices the
	// query's work, so the scheduler decides alike on a cold and a warm
	// statement. Build sides are not all fixed-size (orders grows with
	// every NewOrder), but they are real rows of this database rather than
	// a stand-in for a larger fact table, so they are not subject to the
	// byte-scale emulation. The measured stolen bytes tell the model how
	// much payload actually crossed sockets under work stealing, replacing
	// a purely modeled attribution.
	scan := s.Model.OLAPScan(costmodel.ScanRequest{
		Class:                 q.Class(),
		BytesAt:               s.scaleAll(stats.BytesAt),
		Workers:               adm.olapPlace,
		Background:            base.Usage,
		BroadcastBytes:        stats.BuildBytes,
		MeasuredRemoteBytesAt: s.scaleAll(stats.StolenBytesAt),
		// Merged group counts grow with the fact table (Q3/Q18 group per
		// order), so the sort volume scales with the emulated size like
		// the payload bytes do — unlike the unscaled broadcast.
		SortRows: s.scale(res.SortedRows),
	})
	during := s.Model.OLTPThroughput(costmodel.OLTPLoad{
		Workers: adm.oltpPlace, HomeSocket: s.Cfg.OLTPSocket, Background: scan.Usage,
	})

	rep := QueryReport{
		Query:           q.Name(),
		State:           adm.state,
		Method:          adm.method,
		Tenant:          tenant,
		ExecSeconds:     scan.Seconds,
		ETLSeconds:      adm.etlSeconds,
		SyncSeconds:     adm.syncSeconds,
		OLTPBaselineTPS: base.TPS,
		OLTPDuringTPS:   during.TPS,
		Nfq:             adm.fresh.Nfq,
		Nft:             adm.fresh.Nft,
		FreshRate:       adm.fresh.Rate,
		Result:          res,
		Stats:           stats,
		CrossBytes:      scan.CrossBytes,
		ETLBytes:        adm.etlBytes,
		ScanUsage:       scan.Usage,
	}
	rep.ResponseSeconds = rep.ExecSeconds + rep.ETLSeconds
	return rep, adm.set, nil
}

// chooseMethod derives the access path from the state (§3.4): S2 reads the
// freshly loaded replica; S1 reads the snapshot in place; hybrid states
// use split access when the optimization is enabled, the fact table has no
// pending updated rows (split is only sound for insert-only access, §5.2),
// and the replica holds a useful prefix — otherwise full-remote.
func (s *System) chooseMethod(st State, fresh rde.Freshness) rde.AccessMethod {
	switch st {
	case S2:
		return rde.ReadReplica
	case S1:
		return rde.ReadSnapshot
	default:
		if s.Sched.config().SplitAccess && fresh.QueryUpdatedRows == 0 {
			return rde.ReadSplit
		}
		return rde.ReadSnapshot
	}
}

// OLTPThroughputNow reports the modeled transactional throughput with the
// current placement and no analytical interference.
func (s *System) OLTPThroughputNow() float64 {
	_, oltpP, _ := s.Sched.Placements()
	res := s.Model.OLTPThroughput(costmodel.OLTPLoad{
		Workers:    oltpP,
		HomeSocket: s.Cfg.OLTPSocket,
	})
	return res.TPS
}

// InjectTransactions synchronously executes n transactions from the
// installed workload on as many OLTP workers as the scheduler's OLTP
// placement holds when the batch starts; a migration during the batch
// sizes the next one. Experiment drivers call it to advance the
// transactional state by a deterministic amount that corresponds to a
// simulated interval.
func (s *System) InjectTransactions(n int) {
	_, oltpP, _ := s.Sched.Placements()
	s.OLTPE.Workers().ExecuteBatch(n, oltpP.Total())
}

// Close shuts the persistent OLAP pool down: its goroutines drain queued
// morsels and exit (OLTP batches hold no goroutines between calls). Close
// is idempotent and safe to call concurrently with in-flight queries —
// already-admitted tasks drain to completion (retiring workers act as
// caretakers), while new submissions fail with an error wrapping
// olap.ErrClosed. Concurrent Close calls all return only after the pool
// is down.
func (s *System) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.OLAPE.Close()
	})
}

// CheckpointDB writes a whole-database checkpoint under dir on cfs and
// returns its sequence number. The capture runs under the admission lock,
// at the cut of an exchange cycle: inside the exchange's commit barrier,
// right after the switch, no commit sits between its WAL append and its
// in-memory application, so the captured (WAL position, clock, commit
// count, table watermarks, OLAP dirty bits) are one transaction-consistent
// cut and every inactive instance is that cut's image.
//
// Streaming happens after the barrier releases — transactions and queries
// proceed while checkpoint.WriteImage writes the table files from the
// pinned snapshot instances (updates go to the re-activated twin; appends
// land beyond the captured row watermarks). The log below the captured
// position is synced before any file is written; the manifest goes last,
// so a crash mid-checkpoint leaves a manifest-less directory that
// recovery ignores.
func (s *System) CheckpointDB(cfs wal.FS, dir string, extras map[string]int64) (uint64, error) {
	tables := s.OLTPE.Tables()
	mgr := s.OLTPE.Manager()
	man := &checkpoint.Manifest{Extras: extras}
	snaps := make([]checkpoint.Snapshot, 0, len(tables))

	s.admitMu.Lock()
	s.X.SwitchAndSyncAt(tables, func(set *rde.SnapshotSet) {
		if l := mgr.WAL(); l != nil {
			man.WALPos = l.Pos()
		}
		man.Clock = set.SwitchTS
		man.Commits = mgr.Commits()
		for i, h := range tables {
			var dirty []int64 // updated rows only: inserts are Rows − ReplicaRows
			h.Table().DirtyOLAP().ForEachSet(func(row int) { dirty = append(dirty, int64(row)) })
			man.Tables = append(man.Tables, checkpoint.TableEntry{
				Name:        h.Table().Schema().Name,
				Rows:        set.Snaps[i].Rows,
				ReplicaRows: h.Replica.Rows(),
				Dirty:       dirty,
			})
			snaps = append(snaps, checkpoint.Snapshot{Table: h.Table(), Inst: set.Snaps[i].Inst})
		}
	})
	// The exchange held scan latches through the cut, so the pins go on
	// after it: no other cycle runs before admitMu is released.
	unpins := make([]func(), len(man.Tables))
	for i, te := range man.Tables {
		unpins[i] = s.X.BeginScan(te.Name)
	}
	s.admitMu.Unlock()
	defer func() {
		for _, unpin := range unpins {
			unpin()
		}
	}()

	// The manifest vouches for the log below its position, so that prefix
	// is made durable before the manifest can be: otherwise a crash could
	// keep the image but lose records it skips, and a log resumed from the
	// shorter prefix would write new commits below the position, where
	// replay never looks.
	if l := mgr.WAL(); l != nil {
		if err := l.Sync(); err != nil {
			return 0, fmt.Errorf("core: checkpoint: syncing the log: %w", err)
		}
	}
	return checkpoint.WriteImage(cfs, dir, man, snaps)
}
