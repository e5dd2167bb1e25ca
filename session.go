package elastichtap

import (
	"context"
	"errors"
	"fmt"

	"elastichtap/internal/core"
	"elastichtap/internal/olap"
	"elastichtap/internal/rde"
	"elastichtap/internal/workload"
	"elastichtap/query"
)

// ErrClosed reports a query or submission against a System whose Close
// has begun. Close drains in-flight work and then rejects: queries
// admitted before Close complete normally, later ones fail with an error
// wrapping this sentinel.
var ErrClosed = olap.ErrClosed

// ErrCancelled reports a query abandoned before completion — a cancelled
// context, an expired deadline, or Handle.Cancel. The returned error
// wraps both ErrCancelled and the context's own cause, so
//
//	errors.Is(err, elastichtap.ErrCancelled)   // any cancellation
//	errors.Is(err, context.DeadlineExceeded)   // specifically a timeout
//
// both work. Cancellation is observed between admission phases and, once
// executing, at morsel boundaries: the error arrives within one morsel's
// work per active worker, partial results are discarded, and the System
// (pool, placement, replicas) remains fully usable.
var ErrCancelled = olap.ErrCancelled

// ErrPending is returned by Handle.Report while the submission is still
// executing.
var ErrPending = errors.New("elastichtap: query still executing")

// ErrOverloaded is the workload manager's backpressure sentinel: an
// admission rejected because the tenant's queue is at its configured
// depth or its scanned-bytes budget for the current quota window is
// spent. Match it with errors.Is; the concrete error is a *OverloadError
// carrying the tenant, the reason and retry-after metadata:
//
//	var oe *elastichtap.OverloadError
//	if errors.As(err, &oe) {
//	    time.Sleep(oe.RetryAfter) // 0 for queue-full: retry when a slot frees
//	}
//
// Overload is reported instead of queueing unboundedly — the serving
// system's alternative to collapse under a misbehaving tenant.
var ErrOverloaded = workload.ErrOverloaded

// ErrUnknownTenant reports a query naming a tenant that was never
// registered; the default tenant always exists.
var ErrUnknownTenant = workload.ErrUnknownTenant

// OverloadError re-exports the workload manager's typed admission
// rejection (tenant, reason, retry-after, occupancy).
type OverloadError = workload.OverloadError

// TenantConfig re-exports the workload manager's per-tenant priority and
// quota configuration: Weight (fair-share of morsel throughput under
// contention), MaxConcurrent and MaxQueueDepth (admission bounds;
// UnlimitedQuota removes one, zero really means zero), BytesPerWindow and
// Window (scanned-bytes budget on a monotonic clock).
type TenantConfig = workload.Config

// TenantStats re-exports one tenant's observability snapshot.
type TenantStats = workload.TenantStats

// UnlimitedQuota removes a concurrency or queue-depth bound in a
// TenantConfig.
const UnlimitedQuota = workload.Unlimited

// DefaultTenant is the implicit tenant untenanted queries run as. It is
// registered automatically with weight 1 and no quotas, so callers that
// predate the workload manager behave exactly as before.
const DefaultTenant = workload.DefaultTenant

// WithTenant returns a context whose queries run as the named tenant:
// they pass the tenant's admission gate (concurrency bound, queue depth,
// byte budget) and compete for pool workers at the tenant's weight.
// Thread it through QueryContext, Submit, or a prepared statement's
// Query:
//
//	ctx := elastichtap.WithTenant(ctx, "dashboards")
//	rep, err := sys.QueryContext(ctx, q)
//
// The tenant must have been registered with RegisterTenant (the default
// tenant excepted); unknown names fail with ErrUnknownTenant.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return workload.WithTenant(ctx, tenant)
}

// RegisterTenant creates or reconfigures a workload-manager tenant.
// Tenants are the unit of multi-tenant arbitration: each gets its own
// admission queue and quota window, and under contention the elastic
// pool divides morsel throughput between backlogged tenants in
// proportion to their weights (4:2:1 weights converge to 4:2:1 shares).
// Reconfiguration applies to subsequent admissions; in-flight queries
// are untouched.
func (s *System) RegisterTenant(name string, cfg TenantConfig) error {
	return s.inner.WM.Register(name, cfg)
}

// TenantStats returns the workload manager's per-tenant snapshots sorted
// by name; Metrics joins the same rows with measured morsel dispatch.
func (s *System) TenantStats() []TenantStats {
	return s.inner.WM.Stats()
}

// Args re-exports the prepared-statement argument set (package
// elastichtap/query): one value per query.Param name in the plan.
type Args = query.Args

// QueryContext schedules and executes an analytical query adaptively: the
// scheduler measures freshness, picks a state (Algorithm 2), migrates
// resources (Algorithm 1), optionally ETLs, and executes. It fails with
// ErrNoDatabase before LoadCH; see also Submit for asynchronous sessions
// and Prepare for parameterized statements. The context is observed
// through admission (switch, migration, ETL) and during execution at
// morsel boundaries: a cancelled query fails with an error wrapping
// ErrCancelled and the context's cause, and the System stays fully usable.
func (s *System) QueryContext(ctx context.Context, q Query) (QueryReport, error) {
	if s.db == nil {
		return QueryReport{}, fmt.Errorf("elastichtap: Query: %w", ErrNoDatabase)
	}
	rep, _, err := s.inner.RunQueryContext(ctx, q, core.QueryOptions{}, nil)
	return rep, err
}

// QueryInStateContext executes the query with the system pinned to a
// state (static schedules, A/B comparisons), with QueryContext's
// cancellation.
func (s *System) QueryInStateContext(ctx context.Context, q Query, st State) (QueryReport, error) {
	if s.db == nil {
		return QueryReport{}, fmt.Errorf("elastichtap: QueryInState: %w", ErrNoDatabase)
	}
	rep, _, err := s.inner.RunQueryContext(ctx, q, core.QueryOptions{ForceState: core.ForcedState(st)}, nil)
	return rep, err
}

// QueryBatchContext executes a batch of queries over one shared snapshot
// with a single ETL (the paper's query-batch class, §2.3/§4.2): the first
// member switches the active instances and every later one is handed the
// snapshot set the first returned, which is the whole request to reuse
// it. The
// context is checked before each member and during each execution; on
// cancellation the reports of the queries that completed are returned
// alongside the error.
func (s *System) QueryBatchContext(ctx context.Context, qs []Query) ([]QueryReport, error) {
	if s.db == nil {
		return nil, fmt.Errorf("elastichtap: QueryBatch: %w", ErrNoDatabase)
	}
	var out []QueryReport
	var set *rde.SnapshotSet
	for _, q := range qs {
		rep, next, err := s.inner.RunQueryContext(ctx, q, core.QueryOptions{Batch: true}, set)
		if err != nil {
			return out, err
		}
		set = next
		out = append(out, rep)
	}
	return out, nil
}

// Handle tracks one asynchronous query submission. Obtain one from
// System.Submit; then Wait for the outcome, select on Done, poll Report,
// or Cancel the execution.
type Handle struct {
	query  string
	cancel context.CancelFunc
	done   chan struct{}
	rep    QueryReport
	err    error
}

// Query returns the submitted query's display name.
func (h *Handle) Query() string { return h.query }

// Done returns a channel closed when the submission finishes — however it
// finishes: success, failure, or cancellation.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the submission finishes and returns its outcome.
// Safe to call from several goroutines; every caller sees the same
// report and error.
func (h *Handle) Wait() (QueryReport, error) {
	<-h.done
	return h.rep, h.err
}

// Report returns the outcome without blocking: ErrPending while the
// query is still executing, Wait's result afterwards.
func (h *Handle) Report() (QueryReport, error) {
	select {
	case <-h.done:
		return h.rep, h.err
	default:
		return QueryReport{}, ErrPending
	}
}

// Cancel abandons the submission: unstarted work is discarded at the next
// morsel boundary and Wait returns an error wrapping ErrCancelled and
// context.Canceled. Cancelling a finished submission is a no-op — a
// cancel racing normal completion keeps the successful result. Cancel
// does not block for the drain; Wait observes it.
func (h *Handle) Cancel() { h.cancel() }

// Submit enqueues a query for asynchronous execution and returns
// immediately. Many client goroutines may submit concurrently: admission
// (snapshot switch, freshness measurement, migration, ETL) runs one
// query at a time — in no guaranteed order across submissions — while
// the executions interleave their morsels on the shared elastic worker
// pool: the multi-client serving shape the paper's scheduler was built
// for. The context governs the whole submission (queueing included);
// Handle.Cancel cancels just this query.
func (s *System) Submit(ctx context.Context, q Query) (*Handle, error) {
	if s.db == nil {
		return nil, fmt.Errorf("elastichtap: Submit: %w", ErrNoDatabase)
	}
	if err := ctx.Err(); err != nil {
		return nil, olap.CancelErr(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	h := &Handle{query: q.Name(), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer cancel()
		rep, _, err := s.inner.RunQueryContext(cctx, q, core.QueryOptions{}, nil)
		h.rep, h.err = rep, err
		close(h.done)
	}()
	return h, nil
}

// Stmt is a prepared statement: a logical plan bound once against the
// catalog — name resolution, predicate typing, kernel selection — and
// executed many times with different parameter values. WithArgs stamps
// the values into the compiled predicate tests without re-running
// compilation, bitwise identical to rebinding the plan with the values
// inlined, and returns a Query for QueryContext, QueryInStateContext or
// Submit. A Stmt is safe for concurrent use.
type Stmt = query.Compiled

// Prepare binds a logical plan against the loaded database and returns a
// reusable prepared statement. Placeholder positions are type-checked
// against the catalog here; only the values arrive later. A plan without
// parameters is executable as prepared.
func (s *System) Prepare(p *Plan) (*Stmt, error) {
	if s.db == nil {
		return nil, fmt.Errorf("elastichtap: Prepare: %w", ErrNoDatabase)
	}
	return p.Bind(s.db)
}

// TableFreshness reports one table's freshness in isolation: the rate of
// replica-identical tuples over the table's tuples, and the fresh bytes
// an ETL of just this table would copy. Unlike the system-wide Freshness,
// this reads the staleness of exactly the table a workload cares about.
func (s *System) TableFreshness(table string) (rate float64, freshBytes int64, err error) {
	h := s.inner.OLTPE.Table(table)
	if h == nil {
		return 0, 0, fmt.Errorf("elastichtap: unknown table %q", table)
	}
	f := s.inner.X.TableFreshness(h)
	return f.Rate, f.Nft, nil
}
