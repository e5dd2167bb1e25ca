// Package workload is the multi-tenant workload manager: the arbitration
// layer between client sessions and the elastic OLAP pool. Tenants
// register with a dispatch weight and resource quotas; every query passes
// through its tenant's admission queue before it may touch the system, and
// a weighted-fair dispatcher (internal/olap) divides morsel throughput
// between contending tenants in proportion to their weights.
//
// The paper's scheduler arbitrates OLTP-vs-OLAP resources for a single
// client on one box; this package generalizes that single-knob story to
// many concurrent tenants with different priorities competing for the same
// elastic pool:
//
//   - Admission control. A tenant runs at most MaxConcurrent queries; the
//     next MaxQueueDepth admissions wait in a FIFO queue, and beyond that
//     Admit fails fast with a typed *OverloadError (errors.Is-able against
//     ErrOverloaded) carrying retry-after metadata — backpressure instead
//     of unbounded queueing.
//   - Resource quotas. BytesPerWindow bounds the bytes a tenant may scan
//     per quota window. Windows refill on a monotonic clock injectable in
//     tests, so quota behavior is deterministic under a fake clock.
//   - Fair dispatch. Weight feeds the OLAP engine's deficit-round-robin
//     dispatcher; under contention each backlogged tenant's morsel
//     throughput converges to its weight share.
//
// Callers that never mention a tenant run through the implicit
// DefaultTenant, which is registered unlimited — existing single-tenant
// code is unchanged.
package workload

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultTenant is the implicit tenant for untenanted callers. It is
// registered by New with weight 1 and no quotas, so code written before
// the workload manager existed behaves exactly as it used to.
const DefaultTenant = "default"

// ErrOverloaded is the sentinel every admission rejection matches:
//
//	errors.Is(err, workload.ErrOverloaded)
//
// The concrete error is a *OverloadError carrying the tenant, the reason
// and retry-after metadata; unwrap it with errors.As.
var ErrOverloaded = errors.New("workload: tenant overloaded")

// ErrUnknownTenant reports an admission naming a tenant that was never
// registered. The default tenant always exists.
var ErrUnknownTenant = errors.New("workload: unknown tenant")

// Reason classifies why an admission was rejected.
type Reason int8

const (
	// QueueFull: the tenant is at MaxConcurrent and its admission queue is
	// at MaxQueueDepth. Retry when a running query finishes.
	QueueFull Reason = iota
	// BytesExhausted: the tenant spent its BytesPerWindow budget; the
	// OverloadError's RetryAfter is the time until the window refills.
	BytesExhausted
)

// String renders the reason for error messages and operator output.
func (r Reason) String() string {
	switch r {
	case QueueFull:
		return "queue full"
	case BytesExhausted:
		return "bytes budget exhausted"
	default:
		return fmt.Sprintf("Reason(%d)", r)
	}
}

// OverloadError is the typed admission rejection: which tenant, why, and
// when a retry has a chance. It matches ErrOverloaded under errors.Is.
type OverloadError struct {
	// Tenant is the rejected tenant's name.
	Tenant string
	// Reason classifies the rejection.
	Reason Reason
	// RetryAfter estimates how long until the constraint clears: the
	// remainder of the quota window for BytesExhausted, zero for QueueFull
	// (retry when a slot frees — there is no modeled completion time).
	RetryAfter time.Duration
	// Running and Queued snapshot the tenant's occupancy at rejection.
	Running, Queued int
}

// Error implements error.
func (e *OverloadError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("workload: tenant %q overloaded: %v (retry after %v)",
			e.Tenant, e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("workload: tenant %q overloaded: %v", e.Tenant, e.Reason)
}

// Is matches the ErrOverloaded sentinel.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Config describes one tenant's dispatch priority and quotas.
//
// Quota semantics are explicit: a zero MaxConcurrent really is a zero
// quota — every admission is rejected — and a zero MaxQueueDepth really
// means no waiting. Unlimited is spelled Unlimited (any negative value).
type Config struct {
	// Weight is the tenant's share of morsel throughput under contention,
	// relative to other backlogged tenants (4:2:1 weights converge to
	// 4:2:1 shares). Zero normalizes to 1; negative is invalid.
	Weight int
	// MaxConcurrent bounds the tenant's running queries. 0 rejects every
	// admission (a zero-quota tenant); Unlimited removes the bound.
	MaxConcurrent int
	// MaxQueueDepth bounds admissions waiting behind MaxConcurrent. 0
	// means no queueing — reject as soon as the tenant is at its
	// concurrency bound; Unlimited is accepted but defeats backpressure.
	MaxQueueDepth int
	// BytesPerWindow bounds the bytes the tenant's queries may scan per
	// Window; 0 or negative means unmetered. The budget is charged at
	// release with the bytes actually scanned, so one query may overshoot
	// the line — the next admission pays for it.
	BytesPerWindow int64
	// Window is the refill period for BytesPerWindow; zero defaults to
	// DefaultWindow.
	Window time.Duration
}

// Unlimited removes a concurrency or queue-depth bound.
const Unlimited = -1

// DefaultWindow is the quota window applied when Config.Window is zero.
const DefaultWindow = time.Second

// Grant is one admitted query's slot; Release returns it, charging the
// bytes the query actually scanned against the tenant's window budget.
// Release is idempotent.
type Grant struct {
	m    *Manager
	t    *tenant
	done bool
}

// TenantStats is one tenant's observability snapshot.
type TenantStats struct {
	Name   string
	Weight int
	// Running and Queued are current occupancy gauges.
	Running, Queued int
	// Admitted and Rejected count admissions over the manager's lifetime.
	Admitted, Rejected uint64
	// BytesScanned is the lifetime scanned-bytes total; WindowBytes is
	// the spend inside the current quota window.
	BytesScanned, WindowBytes int64
	// AdmissionWait is cumulative time admissions spent queued.
	AdmissionWait time.Duration
}

// waiter is one queued admission. The manager grants it by setting ok and
// closing ready; a cancelled waiter that was granted in the race returns
// its slot itself.
type waiter struct {
	ready chan struct{}
	ok    bool //htap:guardedby Manager.mu
}

// tenant is the manager's per-tenant state; all fields are guarded by the
// manager's mutex.
type tenant struct {
	name string
	cfg  Config //htap:guardedby Manager.mu

	running int       //htap:guardedby Manager.mu
	queue   []*waiter //htap:guardedby Manager.mu

	// windowStart is the monotonic instant the current quota window
	// began; windowBytes the spend inside it.
	windowStart time.Duration //htap:guardedby Manager.mu
	windowBytes int64         //htap:guardedby Manager.mu

	admitted, rejected uint64        //htap:guardedby Manager.mu
	bytesTotal         int64         //htap:guardedby Manager.mu
	waitTotal          time.Duration //htap:guardedby Manager.mu
}

// Manager is the tenant registry and admission gate. It is safe for
// concurrent use by any number of goroutines.
type Manager struct {
	mu      sync.Mutex
	now     func() time.Duration // monotonic clock
	tenants map[string]*tenant   //htap:guardedby mu
}

// New returns a manager on the real monotonic clock, with DefaultTenant
// registered unlimited at weight 1.
func New() *Manager {
	start := time.Now()
	return NewWithClock(func() time.Duration { return time.Since(start) })
}

// NewWithClock is New with an injected monotonic clock — time.Duration
// elapsed since an arbitrary origin, never decreasing. Tests drive quota
// windows deterministically with a fake.
func NewWithClock(now func() time.Duration) *Manager {
	m := &Manager{now: now, tenants: map[string]*tenant{}}
	m.tenants[DefaultTenant] = &tenant{
		name: DefaultTenant,
		cfg: Config{
			Weight:        1,
			MaxConcurrent: Unlimited,
			MaxQueueDepth: Unlimited,
			Window:        DefaultWindow,
		},
	}
	return m
}

// Register creates or reconfigures a tenant. Reconfiguring takes effect
// for subsequent admissions; running queries and queued waiters are
// untouched. Registering DefaultTenant adjusts the implicit tenant.
func (m *Manager) Register(name string, cfg Config) error {
	if name == "" {
		return fmt.Errorf("workload: Register: empty tenant name")
	}
	if cfg.Weight < 0 {
		return fmt.Errorf("workload: Register %q: negative weight %d", name, cfg.Weight)
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.tenants[name]; ok {
		t.cfg = cfg
		return nil
	}
	m.tenants[name] = &tenant{name: name, cfg: cfg, windowStart: m.windowOrigin(cfg.Window)}
	return nil
}

// windowOrigin aligns a new tenant's first window to the clock so refill
// instants are predictable under a fake clock. Callers hold m.mu.
//
//htap:locked mu
func (m *Manager) windowOrigin(w time.Duration) time.Duration {
	now := m.now()
	return now - now%w
}

// Weight returns the tenant's dispatch weight; unknown tenants report 1,
// so the OLAP dispatcher never sees a zero share.
func (m *Manager) Weight(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.tenants[m.resolve(name)]; ok {
		return t.cfg.Weight
	}
	return 1
}

// resolve maps the empty name to the default tenant.
func (m *Manager) resolve(name string) string {
	if name == "" {
		return DefaultTenant
	}
	return name
}

// refill rolls the tenant's quota window forward to the one containing
// now, zeroing the spend — metered or not, so WindowBytes always reads the
// current window's spend. Lazy: called on every admission and release, so
// no timer goroutine is needed and a fake clock fully determines when
// budgets refill. Callers hold m.mu.
//
//htap:locked Manager.mu
func (t *tenant) refill(now time.Duration) {
	if elapsed := now - t.windowStart; elapsed >= t.cfg.Window {
		t.windowStart = now - now%t.cfg.Window
		t.windowBytes = 0
	}
}

// Admit blocks until the named tenant may run one more query, then
// returns the slot's Grant. The empty name means DefaultTenant; a name
// never registered fails with ErrUnknownTenant.
//
// Admit fails fast with a *OverloadError — never queueing — when the
// tenant's scanned-bytes budget for the current window is spent, or when
// the admission queue is at MaxQueueDepth. Otherwise, a tenant at
// MaxConcurrent queues the admission FIFO; cancelling ctx while queued
// removes the waiter and frees its queue slot immediately (a grant that
// raced the cancellation is passed on to the next waiter).
func (m *Manager) Admit(ctx context.Context, name string) (*Grant, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	t, ok := m.tenants[m.resolve(name)]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q (Register it, or use the default tenant)", ErrUnknownTenant, name)
	}
	now := m.now()
	t.refill(now)
	if t.cfg.BytesPerWindow > 0 && t.windowBytes >= t.cfg.BytesPerWindow {
		err := m.reject(t, BytesExhausted, t.windowStart+t.cfg.Window-now)
		m.mu.Unlock()
		return nil, err
	}
	if t.cfg.MaxConcurrent < 0 || t.running < t.cfg.MaxConcurrent {
		t.running++
		t.admitted++
		m.mu.Unlock()
		return &Grant{m: m, t: t}, nil
	}
	if t.cfg.MaxQueueDepth >= 0 && len(t.queue) >= t.cfg.MaxQueueDepth {
		err := m.reject(t, QueueFull, 0)
		m.mu.Unlock()
		return nil, err
	}
	w := &waiter{ready: make(chan struct{})}
	t.queue = append(t.queue, w)
	m.mu.Unlock()

	select {
	case <-w.ready:
		m.mu.Lock()
		t.waitTotal += m.now() - now
		t.admitted++
		m.mu.Unlock()
		return &Grant{m: m, t: t}, nil
	case <-ctx.Done():
		m.mu.Lock()
		granted := m.dequeue(t, w)
		m.mu.Unlock()
		if granted {
			// The grant raced the cancellation: hand the slot back, which
			// wakes the next waiter or decrements running.
			g := &Grant{m: m, t: t}
			g.Release(0)
		}
		return nil, ctx.Err()
	}
}

// reject records a rejection and builds its error. Callers hold m.mu.
//
//htap:locked mu
func (m *Manager) reject(t *tenant, r Reason, retry time.Duration) error {
	t.rejected++
	return &OverloadError{
		Tenant:     t.name,
		Reason:     r,
		RetryAfter: retry,
		Running:    t.running,
		Queued:     len(t.queue),
	}
}

// dequeue removes a cancelled waiter from the tenant's queue, reporting
// whether it had already been granted. Callers hold m.mu.
//
//htap:locked mu
func (m *Manager) dequeue(t *tenant, w *waiter) bool {
	for i, x := range t.queue {
		if x == w {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			return false
		}
	}
	return w.ok // no longer queued: granted unless the queue was reconfigured away
}

// Release returns the grant's concurrency slot and charges the bytes the
// query actually scanned against the tenant's current window. The slot
// passes to the head of the admission queue if one is waiting. Idempotent:
// a second Release is a no-op.
func (g *Grant) Release(bytesScanned int64) {
	if g == nil || g.done {
		return
	}
	g.done = true
	m, t := g.m, g.t
	m.mu.Lock()
	defer m.mu.Unlock()
	t.refill(m.now())
	if bytesScanned > 0 {
		t.windowBytes += bytesScanned
		t.bytesTotal += bytesScanned
	}
	// Hand the slot to the oldest waiter; running stays constant across
	// the transfer. With no waiter the slot simply frees.
	if len(t.queue) > 0 {
		w := t.queue[0]
		t.queue = t.queue[1:]
		w.ok = true
		close(w.ready)
		return
	}
	t.running--
}

// Tenant returns one tenant's stats; ok is false for unknown names.
func (m *Manager) Tenant(name string) (TenantStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[m.resolve(name)]
	if !ok {
		return TenantStats{}, false
	}
	return m.statsLocked(t), true
}

// Stats snapshots every registered tenant, sorted by name.
func (m *Manager) Stats() []TenantStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TenantStats, 0, len(m.tenants))
	for _, t := range m.tenants {
		out = append(out, m.statsLocked(t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// statsLocked builds one tenant's snapshot. Callers hold m.mu.
//
//htap:locked mu
func (m *Manager) statsLocked(t *tenant) TenantStats {
	t.refill(m.now())
	return TenantStats{
		Name:          t.name,
		Weight:        t.cfg.Weight,
		Running:       t.running,
		Queued:        len(t.queue),
		Admitted:      t.admitted,
		Rejected:      t.rejected,
		BytesScanned:  t.bytesTotal,
		WindowBytes:   t.windowBytes,
		AdmissionWait: t.waitTotal,
	}
}

// tenantKey is the context key carrying the tenant name.
type tenantKey struct{}

// WithTenant returns a context whose queries run as the named tenant.
// Sessions thread it through QueryContext / Submit; the empty name keeps
// the default tenant.
func WithTenant(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, tenantKey{}, name)
}

// TenantFrom extracts the tenant name from a context; contexts without
// one report DefaultTenant.
func TenantFrom(ctx context.Context) string {
	if name, ok := ctx.Value(tenantKey{}).(string); ok && name != "" {
		return name
	}
	return DefaultTenant
}
