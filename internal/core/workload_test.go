package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"elastichtap/internal/ch"
	"elastichtap/internal/workload"
)

// TestDefaultTenantImplicit: callers that never mention a tenant run
// through the implicit default tenant, unchanged — and show up in the
// per-tenant metrics.
func TestDefaultTenantImplicit(t *testing.T) {
	sys, db := newTestSystem(t)
	defer sys.Close()
	rep, _, err := sys.RunQueryContext(context.Background(), db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenant != workload.DefaultTenant {
		t.Fatalf("tenant = %q, want %q", rep.Tenant, workload.DefaultTenant)
	}
	snap := sys.Metrics()
	if len(snap.Tenants) != 1 || snap.Tenants[0].Name != workload.DefaultTenant {
		t.Fatalf("tenant rows = %+v", snap.Tenants)
	}
	row := snap.Tenants[0]
	if row.Admitted != 1 || row.Running != 0 || row.Rejected != 0 {
		t.Fatalf("default tenant row = %+v", row)
	}
	if row.MorselsDispatched == 0 || row.BytesScanned == 0 {
		t.Fatalf("dispatch/bytes not accounted: %+v", row)
	}
}

// TestZeroQuotaTenantOverloaded: a tenant registered with zero concurrency
// is rejected with the typed overload error — it never queues, never
// deadlocks, and the system stays usable for other tenants.
func TestZeroQuotaTenantOverloaded(t *testing.T) {
	sys, db := newTestSystem(t)
	defer sys.Close()
	if err := sys.WM.Register("blocked", workload.Config{MaxConcurrent: 0}); err != nil {
		t.Fatal(err)
	}
	ctx := workload.WithTenant(context.Background(), "blocked")
	_, _, err := sys.RunQueryContext(ctx, db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil)
	if !errors.Is(err, workload.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *workload.OverloadError
	if !errors.As(err, &oe) || oe.Tenant != "blocked" {
		t.Fatalf("overload metadata = %+v (err %v)", oe, err)
	}
	// The default tenant is unaffected.
	if _, _, err := sys.RunQueryContext(context.Background(), db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownTenantRejectedBeforeAdmission: naming a tenant that was never
// registered fails fast with ErrUnknownTenant.
func TestUnknownTenantRejectedBeforeAdmission(t *testing.T) {
	sys, db := newTestSystem(t)
	defer sys.Close()
	ctx := workload.WithTenant(context.Background(), "ghost")
	_, _, err := sys.RunQueryContext(ctx, db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil)
	if !errors.Is(err, workload.ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
}

// TestTenantBytesBudgetWindow: byte budgets are charged with the
// cost-model-scaled bytes a query actually scanned and refill on the
// injected monotonic clock, deterministically.
func TestTenantBytesBudgetWindow(t *testing.T) {
	sys, db := newTestSystem(t)
	defer sys.Close()
	var mu sync.Mutex
	now := time.Duration(0)
	clock := func() time.Duration { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now += d; mu.Unlock() }
	sys.WM = workload.NewWithClock(clock)
	if err := sys.WM.Register("metered", workload.Config{
		MaxConcurrent:  workload.Unlimited,
		BytesPerWindow: 1, // any successful scan exhausts the window
		Window:         time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	ctx := workload.WithTenant(context.Background(), "metered")
	if _, _, err := sys.RunQueryContext(ctx, db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil); err != nil {
		t.Fatalf("first query within budget: %v", err)
	}
	_, _, err := sys.RunQueryContext(ctx, db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil)
	var oe *workload.OverloadError
	if !errors.As(err, &oe) || oe.Reason != workload.BytesExhausted {
		t.Fatalf("err = %v, want BytesExhausted overload", err)
	}
	if oe.RetryAfter <= 0 || oe.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want within (0, 1s]", oe.RetryAfter)
	}
	advance(oe.RetryAfter)
	if _, _, err := sys.RunQueryContext(ctx, db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil); err != nil {
		t.Fatalf("post-refill query: %v", err)
	}
}

// TestQueuedQueryCancellationFreesSlot: cancelling a query that is queued
// behind its tenant's concurrency bound — admitted by neither the
// workload manager nor the scheduler — frees the queue slot and releases
// nothing it did not hold.
func TestQueuedQueryCancellationFreesSlot(t *testing.T) {
	sys, db := newTestSystem(t)
	defer sys.Close()
	if err := sys.WM.Register("narrow", workload.Config{MaxConcurrent: 1, MaxQueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	// Occupy the single slot directly so the query under test must queue.
	grant, err := sys.WM.Admit(context.Background(), "narrow")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(workload.WithTenant(context.Background(), "narrow"))
	errc := make(chan error, 1)
	go func() {
		_, _, err := sys.RunQueryContext(ctx, db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil)
		errc <- err
	}()
	waitFor(t, func() bool { ts, _ := tenantStats(sys.WM, "narrow"); return ts.Queued == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued query cancel: err = %v, want context.Canceled", err)
	}
	ts, _ := tenantStats(sys.WM, "narrow")
	if ts.Queued != 0 || ts.Running != 1 {
		t.Fatalf("occupancy after cancel = %+v", ts)
	}
	grant.Release(0)
	// The tenant is fully usable afterwards.
	if _, _, err := sys.RunQueryContext(workload.WithTenant(context.Background(), "narrow"),
		db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTenantsAllProgress is the -race smoke at the system
// level: skewed weights submitting concurrently must all complete, and
// the per-tenant accounting must balance.
func TestConcurrentTenantsAllProgress(t *testing.T) {
	sys, db := newTestSystem(t)
	defer sys.Close()
	tenants := map[string]workload.Config{
		"gold":   {Weight: 4, MaxConcurrent: 4, MaxQueueDepth: 16},
		"silver": {Weight: 2, MaxConcurrent: 4, MaxQueueDepth: 16},
		"bronze": {Weight: 1, MaxConcurrent: 1, MaxQueueDepth: 16},
	}
	for name, cfg := range tenants {
		if err := sys.WM.Register(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	const perTenant = 6
	var wg sync.WaitGroup
	for name := range tenants {
		name := name
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := workload.WithTenant(context.Background(), name)
				rep, _, err := sys.RunQueryContext(ctx, db.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)), QueryOptions{}, nil)
				if err != nil {
					t.Errorf("tenant %s: %v", name, err)
					return
				}
				if rep.Tenant != name {
					t.Errorf("report tenant = %q, want %q", rep.Tenant, name)
				}
			}()
		}
	}
	wg.Wait()
	for name := range tenants {
		ts, ok := tenantStats(sys.WM, name)
		if !ok || ts.Admitted != perTenant || ts.Running != 0 || ts.Queued != 0 {
			t.Errorf("tenant %s final stats = %+v (ok=%v)", name, ts, ok)
		}
	}
	snap := sys.Metrics()
	if len(snap.Tenants) != 4 { // three registered + default
		t.Fatalf("tenant rows = %d, want 4", len(snap.Tenants))
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// tenantStats reads one tenant's row of Stats; ok is false for unknown
// names.
func tenantStats(m *workload.Manager, name string) (workload.TenantStats, bool) {
	for _, st := range m.Stats() {
		if st.Name == name {
			return st, true
		}
	}
	return workload.TenantStats{}, false
}
