// Package oltp assembles the paper's OLTP engine (§3.2): the twin-instance
// columnar Storage Manager (internal/columnar), the MV2PL Transaction
// Manager (internal/txn), cuckoo-hash primary indexes (internal/cuckoo)
// and an elastic Worker pool Manager that runs each transaction batch on
// as many workers as the scheduler's OLTP placement holds when it starts.
//
// The engine runs no background maintenance. Pre-image versions
// (internal/vm) are reclaimed by the transactions that push them: each
// push trims its row's chain back to the oldest active snapshot, so there
// is no collector to start or stop, and a transaction that never finishes
// holds every chain at its begin timestamp (metrics.Snapshot.SnapshotLag).
package oltp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"elastichtap/internal/columnar"
	"elastichtap/internal/cuckoo"
	"elastichtap/internal/index"
	"elastichtap/internal/txn"
)

// TableHandle bundles a table with everything the engines keep per table,
// created with it so that no layer needs a second catalog keyed by name.
type TableHandle struct {
	Ref   *txn.TableRef
	Index *cuckoo.Table // primary-key index; may be nil for index-less tables
	Sec   *index.Set    // lazily-built secondary indexes (value → row ids)

	// Replica is the table's OLAP instance (empty until the first ETL);
	// ScanLatch orders analytical scans against the exchange writers that
	// overwrite cells a scan may be reading (rde.Exchange says when).
	Replica   *columnar.Replica
	ScanLatch sync.RWMutex
}

// Table returns the underlying columnar table.
func (h *TableHandle) Table() *columnar.Table { return h.Ref.Table }

// Fresh measures the table against its OLAP replica: the updated rows the
// replica holds an older value of, the inserted rows it does not hold yet,
// and the table's row count — the one count every freshness probe reads.
func (h *TableHandle) Fresh() columnar.FreshStats {
	return h.Table().FreshSince(h.Replica.Rows())
}

// Engine is the transactional engine.
type Engine struct {
	mgr *txn.Manager

	mu     sync.RWMutex
	tables map[string]*TableHandle //htap:guardedby mu
	// order holds the same handles in creation order. It only grows, and
	// only by append, so a prefix handed to a caller never changes.
	order []*TableHandle //htap:guardedby mu

	wm *WorkerManager
}

// NewEngine returns an engine with an empty catalog.
func NewEngine() *Engine {
	e := &Engine{
		mgr:    txn.NewManager(),
		tables: map[string]*TableHandle{},
	}
	e.wm = newWorkerManager(e)
	return e
}

// Manager exposes the transaction manager (the RDE engine switches the
// instances inside its commit barrier).
func (e *Engine) Manager() *txn.Manager { return e.mgr }

// Workers exposes the worker pool manager.
func (e *Engine) Workers() *WorkerManager { return e.wm }

// CreateTable registers a new twin-instance table with an optional
// primary-key index.
func (e *Engine) CreateTable(schema columnar.Schema, capHint int64, withIndex bool) *TableHandle {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[schema.Name]; dup {
		panic(fmt.Sprintf("oltp: table %q already exists", schema.Name))
	}
	t := columnar.NewTable(schema, capHint)
	h := &TableHandle{Ref: e.mgr.Register(t), Sec: index.NewSet(t), Replica: columnar.NewReplica(t)}
	if withIndex {
		h.Index = cuckoo.New(int(capHint))
	}
	e.tables[schema.Name] = h
	e.order = append(e.order, h)
	return h
}

// Table returns the handle for a table name, or nil.
func (e *Engine) Table(name string) *TableHandle {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[name]
}

// Tables returns all handles in creation order — the order every switch,
// sync, freshness sum and checkpoint manifest follows. The slice is the
// catalog's own, capped at its length: read it, do not write to it.
func (e *Engine) Tables() []*TableHandle {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.order[:len(e.order):len(e.order)]
}

// TxnFunc is one transaction's logic; it runs against a snapshot-isolated
// txn.Txn and is retried by the worker on wait-die or write conflicts.
//
// A body must not retain t, or an insert slot obtained from it, past its
// own return: txn.Manager.RunWithRetry runs every attempt in one recycled
// Txn and hands it to the next transaction as soon as this one is done. A
// caller that needs to hold a transaction open takes its own from
// txn.Manager.Begin.
type TxnFunc func(t *txn.Txn) error

// Workload produces transaction bodies for a worker. Implementations must
// be safe for concurrent use across workers.
type Workload interface {
	// Next returns the next transaction body for the given worker.
	Next(worker int) TxnFunc
}

// WorkerManager is the elastic worker pool (§3.2): "The WM exposes an API
// to set the number of active worker threads and their CPU affinities".
// The scheduler owns that number — the OLTP placement — and each batch is
// handed its worker count when it starts; execution itself uses
// goroutines, one per worker, each generating and executing transactions.
type WorkerManager struct {
	e *Engine

	mu       sync.Mutex
	workload Workload //htap:guardedby mu

	executed atomic.Uint64
	retried  atomic.Uint64
	failed   atomic.Uint64
}

func newWorkerManager(e *Engine) *WorkerManager {
	return &WorkerManager{e: e}
}

// SetWorkload installs the transaction generator. A batch already running
// keeps the workload it started with.
func (wm *WorkerManager) SetWorkload(w Workload) {
	wm.mu.Lock()
	defer wm.mu.Unlock()
	wm.workload = w
}

// Executed returns the number of committed transactions the pool's
// batches have processed.
func (wm *WorkerManager) Executed() uint64 { return wm.executed.Load() }

// Retried returns the number of aborted-and-retried attempts.
func (wm *WorkerManager) Retried() uint64 { return wm.retried.Load() }

// Failed returns the number of transactions abandoned after exhausting
// retries or hitting non-retryable errors.
func (wm *WorkerManager) Failed() uint64 { return wm.failed.Load() }

func (wm *WorkerManager) execOne(workload Workload, worker int) {
	body := workload.Next(worker)
	// Wait-die with sticky priorities guarantees progress; the cap only
	// bounds pathological workloads. Dropping transactions silently would
	// make injected workload volumes nondeterministic.
	retries, err := wm.e.mgr.RunWithRetry(1<<20, body)
	wm.retried.Add(uint64(retries))
	if err == nil {
		wm.executed.Add(1)
	} else {
		wm.failed.Add(1)
	}
}

// ExecuteBatch synchronously executes n transactions of the installed
// workload spread across workers goroutines (at least one) and returns
// when all have committed. Experiment drivers use it to inject a
// deterministic amount of transactional work "during" a simulated
// interval.
func (wm *WorkerManager) ExecuteBatch(n, workers int) {
	wm.mu.Lock()
	workload := wm.workload
	wm.mu.Unlock()
	if workload == nil || n <= 0 {
		return
	}
	workers = min(max(workers, 1), n)
	var wg sync.WaitGroup
	per := n / workers
	extra := n % workers
	for w := 0; w < workers; w++ {
		count := per
		if w < extra {
			count++
		}
		wg.Add(1)
		go func(worker, count int) {
			defer wg.Done()
			for i := 0; i < count; i++ {
				wm.execOne(workload, worker)
			}
		}(w, count)
	}
	wg.Wait()
}
