package olap

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"elastichtap/internal/columnar"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/topology"
)

// ErrClosed reports a submission to an engine whose pool has been
// retired by Close. The facade re-exports it as elastichtap.ErrClosed.
var ErrClosed = errors.New("engine closed")

// ErrCancelled reports a query abandoned before completion — a
// cancelled or expired context, or an explicit Handle.Cancel. Errors
// returned for cancelled work wrap both ErrCancelled and the context's
// own cause, so errors.Is distinguishes context.Canceled from
// context.DeadlineExceeded while errors.Is(err, ErrCancelled) catches
// either. The facade re-exports it as elastichtap.ErrCancelled.
var ErrCancelled = errors.New("query cancelled")

// CancelErr wraps a context cause into the engine's typed cancellation
// error; a nil cause yields ErrCancelled alone.
func CancelErr(cause error) error {
	if cause == nil {
		return ErrCancelled
	}
	return fmt.Errorf("%w: %w", ErrCancelled, cause)
}

// Block is one morsel of aligned column vectors handed to an executor.
// Cols[k] corresponds to the k-th requested column; all slices share
// length N and start at absolute row Base.
type Block struct {
	Base int64
	N    int
	Cols [][]int64
}

// Local is per-morsel executor state; Consume is called exactly once per
// Local, from a single goroutine, so implementations need no locking.
// Partial states merge in morsel order, which keeps results bitwise
// deterministic no matter which worker ran which morsel (see Exec.Merge).
type Local interface {
	Consume(b Block)
}

// Exec is a prepared query: it creates per-morsel state and merges it into
// a final result. Implementations live with the workload definitions
// (internal/ch) — the engine is query-agnostic, mirroring the paper's
// plugin design.
//
// NewLocal is called serially at task admission, once per morsel. Merge
// receives the locals in morsel order — ascending absolute row ranges —
// regardless of worker interleaving or cross-socket stealing, so a Merge
// that combines partials in slice order produces bit-identical float
// results across runs, placements and mid-query resizes. Merge runs on
// the calling goroutine; an Exec that is also a FanMerger has the engine
// call MergeFan instead.
type Exec interface {
	NewLocal() Local
	Merge(locals []Local) Result
}

// Fan runs part(i) once for every i in [0, n) and returns when all have
// returned. The parts may run concurrently, on any goroutines.
type Fan func(n int, part func(i int))

// SerialFan is the Fan that runs the parts in index order on the calling
// goroutine.
func SerialFan(n int, part func(i int)) {
	for i := range n {
		part(i)
	}
}

// FanMerger is an Exec whose merge splits into independent parts. The
// engine calls MergeFan with a Fan that runs the parts as pseudo-morsels
// of the task's tenant, concurrently on the pool and on the waiting
// goroutine; Merge(locals) must equal MergeFan(locals, SerialFan). Each
// part still receives every local in morsel order, so a part that folds
// a disjoint share of the groups in slice order keeps every float total
// bitwise identical to the serial fold, whichever goroutine runs it.
type FanMerger interface {
	Exec
	MergeFan(locals []Local, fan Fan) Result
}

// Query describes an analytical query to the engine and the scheduler.
type Query interface {
	// Name is the query's display name ("Q6").
	Name() string
	// Class is the CPU-intensity class for the cost model.
	Class() costmodel.WorkClass
	// FactTable names the scanned fact table.
	FactTable() string
	// Columns returns the fact-table column indexes the scan touches.
	Columns() []int
	// Prepare builds the executor, reading any dimension (build-side)
	// state; it returns the build-side bytes for broadcast costing.
	Prepare() (Exec, int64)
}

// Result is a small materialized result set.
type Result struct {
	Cols []string
	Rows [][]float64
	// SortedRows is how many merged rows passed through an ordered merge
	// (SortRows) — the sort volume the cost model charges per row. Zero
	// for unordered queries; for top-k queries it counts the rows sorted,
	// not the rows kept.
	SortedRows int64
}

// Stats reports what one execution actually touched.
type Stats struct {
	RowsScanned int64
	// BytesAt[s] is payload homed on socket s.
	BytesAt []int64
	// BuildBytes is broadcast build-side volume.
	BuildBytes int64
	// Workers is the number of distinct pool workers that consumed at
	// least one morsel — never more than the morsel count, and it grows or
	// shrinks when the RDE engine resizes the pool mid-query.
	Workers int
	// Morsels is the task's total morsel count.
	Morsels int
	// LocalMorsels / StolenMorsels count morsels consumed by a worker on
	// the morsel's home socket versus pulled across sockets by work
	// stealing. These are measured, not modeled.
	LocalMorsels, StolenMorsels int64
	// StolenBytesAt[s] is the measured payload homed on socket s that
	// remote workers consumed; it feeds the cost model's cross-socket
	// attribution in place of a purely modeled split.
	StolenBytesAt []int64
}

// Engine executes queries with a persistent worker pool whose size and
// placement the RDE engine adjusts while queries run (the OLAP Worker
// Manager, §3.3). One goroutine runs per allocated core; each socket has a
// FIFO morsel queue with socket-affine dispatch, and idle workers steal
// from other sockets' tails. Multiple SubmitTenant callers share the pool
// concurrently; SetPlacement resizes it incrementally and takes effect
// mid-query.
type Engine struct {
	sockets int

	mu   sync.Mutex
	cond *sync.Cond
	//htap:guardedby mu
	placement topology.Placement
	workers   [][]*worker //htap:guardedby mu
	//htap:guardedby mu
	stopping map[int]*worker // retired workers whose goroutines are still draining
	nlive    int             //htap:guardedby mu
	nextID   int             //htap:guardedby mu
	// tenants/ring/cur are the weighted-fair dispatcher's state: one
	// runnable list per tenant, served deficit-round-robin (see grab in
	// tenant.go). A pool that only ever sees untenanted submissions has a
	// single "default" entry and dispatches exactly as before.
	tenants map[string]*tenantQueue //htap:guardedby mu
	ring    []*tenantQueue          //htap:guardedby mu
	cur     int                     //htap:guardedby mu
	closed  bool                    //htap:guardedby mu
}

// NewEngine returns an engine for a machine with the given socket count.
// The pool starts empty; SetPlacement populates it.
func NewEngine(sockets int) *Engine {
	if sockets < 1 {
		sockets = 1
	}
	e := &Engine{
		sockets:  sockets,
		workers:  make([][]*worker, sockets),
		stopping: map[int]*worker{},
		tenants:  map[string]*tenantQueue{},
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// SetPlacement resizes the worker pool to the given core allocation. The
// resize is incremental and takes effect immediately, mid-query: sockets
// gaining cores spawn workers that start stealing queued morsels at once;
// sockets losing cores retire their most recently granted workers, which
// finish their in-flight morsel and exit (a retiring worker stays on as
// caretaker while queued morsels remain and no active worker exists, so a
// shrink to zero can never strand a running task).
//
// Shrinks are therefore asynchronous: SetPlacement returns once the
// retirements are requested, not once the goroutines have exited, and a
// retiring worker (the caretaker in particular) may still claim morsels
// submitted after the call returns. PoolSize drops immediately; only
// Close waits for the goroutines.
func (e *Engine) SetPlacement(p topology.Placement) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return // Close retired the pool for good; don't spawn orphans
	}
	if e.placement.Equal(p) {
		return // idempotent re-application (e.g. re-entering a state)
	}
	delta := e.placement.Diff(p)
	for s := 0; s < e.sockets && s < len(delta); s++ {
		switch {
		case delta[s] > 0:
			for i := 0; i < delta[s]; i++ {
				w := &worker{e: e, socket: s, id: e.nextID}
				e.nextID++
				e.workers[s] = append(e.workers[s], w)
				e.nlive++
				go w.run()
			}
		case delta[s] < 0:
			for i := 0; i < -delta[s] && len(e.workers[s]) > 0; i++ {
				last := len(e.workers[s]) - 1
				w := e.workers[s][last]
				e.workers[s] = e.workers[s][:last]
				w.stop = true
				e.stopping[w.id] = w
			}
		}
	}
	e.placement = p.Clone()
	e.cond.Broadcast()
}

// PoolSize returns the number of active (non-retiring) workers.
func (e *Engine) PoolSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.activeWorkers()
}

//htap:locked mu
func (e *Engine) activeWorkers() int {
	n := 0
	for _, ws := range e.workers {
		n += len(ws)
	}
	return n
}

// Close retires every worker and waits for their goroutines to exit after
// draining any queued morsels. Submitting to a closed engine fails.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	for s, ws := range e.workers {
		for _, w := range ws {
			w.stop = true
			e.stopping[w.id] = w
		}
		e.workers[s] = nil
	}
	e.placement = topology.Placement{PerSocket: make([]int, e.sockets)}
	e.cond.Broadcast()
	for e.nlive > 0 {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

type morsel struct {
	part   int
	lo, hi int64
	socket int
}

// ExecuteContext runs the query over the source on the shared worker
// pool and returns the materialized result plus scan statistics. It is
// SubmitTenant followed by WaitContext; concurrent callers interleave their
// morsels on the same workers. When ctx is cancelled or its deadline
// expires the task is cancelled at the next morsel boundary (see
// Task.Cancel) and the call returns an error wrapping ErrCancelled and
// the context's cause. The pool stays fully usable afterwards.
func (e *Engine) ExecuteContext(ctx context.Context, q Query, src Source) (Result, Stats, error) {
	return e.ExecuteTenantContext(ctx, q, src, TenantInfo{})
}

// ExecuteTenantContext is ExecuteContext on behalf of a tenant: the task
// joins the tenant's runnable list and competes for workers under the
// weighted-fair dispatcher. The zero TenantInfo is the default tenant.
func (e *Engine) ExecuteTenantContext(ctx context.Context, q Query, src Source, tn TenantInfo) (Result, Stats, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, Stats{}, CancelErr(err)
	}
	t, err := e.SubmitTenant(q, src, tn)
	if err != nil {
		return Result{}, Stats{}, err
	}
	return t.WaitContext(ctx)
}

// SubmitTenant admits a query to the pool on behalf of a tenant (the zero
// TenantInfo is the default tenant): work splits into chunk-aligned
// morsels enqueued on their home socket's queue, one Local is created per
// morsel (never more — there is no state for workers that end up with
// nothing to do), and parked workers wake. The task joins the tenant's
// runnable list, and the pool's deficit-round-robin dispatcher serves
// backlogged tenants in proportion to their weights (see grab). When the
// pool is empty at admission the submitting goroutine drains the task
// itself during Wait, so a zero placement still makes progress.
func (e *Engine) SubmitTenant(q Query, src Source, tn TenantInfo) (*Task, error) {
	// Queries carrying a deferred construction error (olap.Invalid, an
	// unstamped prepared statement) must not reach Prepare.
	if v, ok := q.(interface{ Err() error }); ok {
		if err := v.Err(); err != nil {
			return nil, err
		}
	}
	if err := src.Validate(); err != nil {
		return nil, err
	}
	exec, buildBytes := q.Prepare()
	cols := q.Columns()

	t := &Task{
		e:     e,
		exec:  exec,
		cols:  cols,
		src:   src,
		seen:  map[int]struct{}{},
		queue: make([][]int, e.sockets),
		heads: make([]int, e.sockets),
		done:  make(chan struct{}),
	}
	for pi, p := range src.Parts {
		for lo := p.Lo; lo < p.Hi; {
			hi := (lo/columnar.ChunkSize + 1) * columnar.ChunkSize
			if hi > p.Hi {
				hi = p.Hi
			}
			sock := p.Socket
			if sock < 0 || sock >= e.sockets {
				sock = 0
			}
			t.morsels = append(t.morsels, morsel{part: pi, lo: lo, hi: hi, socket: sock})
			lo = hi
		}
	}
	t.locals = make([]Local, len(t.morsels))
	for i := range t.locals {
		t.locals[i] = exec.NewLocal()
	}
	t.unclaimed = len(t.morsels)
	t.remaining = len(t.morsels)
	t.stats = Stats{
		RowsScanned:   src.Rows(),
		BytesAt:       src.BytesAt(e.sockets, len(cols)),
		BuildBytes:    buildBytes,
		Morsels:       len(t.morsels),
		StolenBytesAt: make([]int64, e.sockets),
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("olap: SubmitTenant %s: %w", q.Name(), ErrClosed)
	}
	for i, m := range t.morsels {
		t.queue[m.socket] = append(t.queue[m.socket], i)
	}
	if t.remaining == 0 {
		close(t.done)
	} else {
		t.tq = e.tenantFor(tn)
		t.tq.tasks = append(t.tq.tasks, t)
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	return t, nil
}

// queuesEmpty reports whether no tenant has an admitted task with
// unclaimed morsels. Callers hold e.mu.
//
//htap:locked mu
func (e *Engine) queuesEmpty() bool {
	for _, tq := range e.ring {
		if tq.runnable() {
			return false
		}
	}
	return true
}
