package elastichtap

import (
	"context"
	"errors"
	"sync"
	"testing"

	"elastichtap/internal/ch"
)

// TestTenantSessionRoundTrip drives the multi-tenant session surface end
// to end: registration, tenanted contexts through QueryContext / Submit /
// prepared statements, per-tenant stats, and backpressure.
func TestTenantSessionRoundTrip(t *testing.T) {
	sys, db := newSystem(t)
	defer sys.Close()
	sys.Run(100)

	if err := sys.RegisterTenant("dash", TenantConfig{Weight: 4, MaxConcurrent: 4, MaxQueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterTenant("etl", TenantConfig{Weight: 1, MaxConcurrent: 2, MaxQueueDepth: 8}); err != nil {
		t.Fatal(err)
	}

	// Synchronous tenanted query.
	ctx := WithTenant(context.Background(), "dash")
	rep, err := sys.QueryContext(ctx, Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenant != "dash" {
		t.Fatalf("report tenant = %q, want dash", rep.Tenant)
	}

	// Asynchronous submissions from two tenants interleave on the pool.
	var wg sync.WaitGroup
	for _, tenant := range []string{"dash", "etl", "dash", "etl"} {
		tenant := tenant
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := sys.Submit(WithTenant(context.Background(), tenant), Q1(db))
			if err != nil {
				t.Errorf("%s submit: %v", tenant, err)
				return
			}
			rep, err := h.Wait()
			if err != nil {
				t.Errorf("%s wait: %v", tenant, err)
				return
			}
			if rep.Tenant != tenant {
				t.Errorf("handle tenant = %q, want %q", rep.Tenant, tenant)
			}
		}()
	}
	wg.Wait()

	// Prepared statements thread the tenant through their context too.
	stmt, err := sys.Prepare(ch.Q6PlanParam())
	if err != nil {
		t.Fatal(err)
	}
	q, err := stmt.WithArgs(ch.Q6Args(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err = sys.QueryContext(WithTenant(context.Background(), "etl"), q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenant != "etl" {
		t.Fatalf("stmt tenant = %q, want etl", rep.Tenant)
	}

	stats := sys.TenantStats()
	byName := map[string]TenantStats{}
	for _, ts := range stats {
		byName[ts.Name] = ts
	}
	if byName["dash"].Admitted != 3 || byName["etl"].Admitted != 3 {
		t.Fatalf("admission counts: %+v", byName)
	}
	if got := sys.Metrics().Tenants; len(got) != 3 { // dash, etl, default
		t.Fatalf("metrics tenant rows = %d, want 3", len(got))
	}
}

// TestZeroQuotaTenantFacade is the acceptance check at the public
// surface: a zero-quota tenant receives ErrOverloaded — typed, with
// metadata — rather than queueing unboundedly, while untenanted callers
// run unchanged through the implicit default tenant.
func TestZeroQuotaTenantFacade(t *testing.T) {
	sys, db := newSystem(t)
	defer sys.Close()
	if err := sys.RegisterTenant("frozen", TenantConfig{MaxConcurrent: 0}); err != nil {
		t.Fatal(err)
	}
	_, err := sys.QueryContext(WithTenant(context.Background(), "frozen"), Q6(db))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Tenant != "frozen" {
		t.Fatalf("overload metadata: %+v (err %v)", oe, err)
	}
	// Untenanted query: implicit default tenant, unchanged behavior.
	rep, err := sys.QueryContext(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenant != DefaultTenant {
		t.Fatalf("untenanted query tenant = %q, want %q", rep.Tenant, DefaultTenant)
	}
	// Unknown tenants fail fast and are distinguishable from overload.
	_, err = sys.QueryContext(WithTenant(context.Background(), "ghost"), Q6(db))
	if !errors.Is(err, ErrUnknownTenant) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("unknown tenant err = %v", err)
	}
}
