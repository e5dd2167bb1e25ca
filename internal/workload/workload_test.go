package workload

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a deterministic monotonic clock for quota-window tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestDefaultTenantUnlimited(t *testing.T) {
	m := New()
	ctx := context.Background()
	var grants []*Grant
	for i := 0; i < 100; i++ {
		g, err := m.Admit(ctx, "")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		grants = append(grants, g)
	}
	st, ok := m.Tenant(DefaultTenant)
	if !ok || st.Running != 100 || st.Admitted != 100 {
		t.Fatalf("default stats = %+v, ok=%v", st, ok)
	}
	for _, g := range grants {
		g.Release(10)
	}
	st, _ = m.Tenant("")
	if st.Running != 0 || st.BytesScanned != 1000 {
		t.Fatalf("after release: %+v", st)
	}
}

func TestUnknownTenantRejected(t *testing.T) {
	m := New()
	_, err := m.Admit(context.Background(), "nobody")
	if !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
}

func TestQueueHandoffFIFO(t *testing.T) {
	m := New()
	if err := m.Register("a", Config{MaxConcurrent: 1, MaxQueueDepth: 4}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g1, err := m.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	// Two queued admissions must be granted in FIFO order as slots free.
	order := make(chan int, 2)
	var wg sync.WaitGroup
	admitted := make(chan struct{}, 2)
	for i := 1; i <= 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := m.Admit(ctx, "a")
			if err != nil {
				t.Error(err)
				return
			}
			order <- i
			admitted <- struct{}{}
			g.Release(0)
		}()
		// Ensure goroutine i queues before i+1 (FIFO determinism).
		waitForQueued(t, m, "a", i)
	}
	g1.Release(0)
	wg.Wait()
	if first := <-order; first != 1 {
		t.Fatalf("first granted waiter = %d, want 1", first)
	}
	<-admitted
	<-admitted
	st, _ := m.Tenant("a")
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("occupancy after drain: %+v", st)
	}
}

func waitForQueued(t *testing.T, m *Manager, name string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := m.Tenant(name); st.Queued == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := m.Tenant(name)
	t.Fatalf("queue depth never reached %d: %+v", want, st)
}

func TestQueueFullOverload(t *testing.T) {
	m := New()
	if err := m.Register("a", Config{MaxConcurrent: 1, MaxQueueDepth: 0}); err != nil {
		t.Fatal(err)
	}
	g, err := m.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Admit(context.Background(), "a")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err %T is not *OverloadError", err)
	}
	if oe.Tenant != "a" || oe.Reason != QueueFull || oe.Running != 1 {
		t.Fatalf("metadata = %+v", oe)
	}
	g.Release(0)
	if _, err := m.Admit(context.Background(), "a"); err != nil {
		t.Fatalf("post-release admit: %v", err)
	}
	st, _ := m.Tenant("a")
	if st.Rejected != 1 || st.Admitted != 2 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestZeroQuotaTenantAlwaysOverloaded(t *testing.T) {
	m := New()
	if err := m.Register("blocked", Config{MaxConcurrent: 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := m.Admit(context.Background(), "blocked")
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("admit %d: err = %v, want ErrOverloaded", i, err)
		}
	}
}

func TestBytesBudgetWindowRefill(t *testing.T) {
	clk := &fakeClock{}
	m := NewWithClock(clk.Now)
	if err := m.Register("a", Config{
		MaxConcurrent:  Unlimited,
		BytesPerWindow: 1000,
		Window:         time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	g, err := m.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	g.Release(1500) // overshoot; next admission pays
	clk.Advance(400 * time.Millisecond)
	_, err = m.Admit(context.Background(), "a")
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != BytesExhausted {
		t.Fatalf("err = %v, want BytesExhausted overload", err)
	}
	if oe.RetryAfter != 600*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 600ms", oe.RetryAfter)
	}
	// The window refills exactly at the boundary; afterwards admissions
	// proceed with a clean budget.
	clk.Advance(600 * time.Millisecond)
	g, err = m.Admit(context.Background(), "a")
	if err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
	g.Release(100)
	st, _ := m.Tenant("a")
	if st.WindowBytes != 100 || st.BytesScanned != 1600 {
		t.Fatalf("window accounting: %+v", st)
	}
}

// TestUnmeteredWindowRolls: a tenant without a byte budget still reports
// only the current window's spend in WindowBytes, not its lifetime total.
func TestUnmeteredWindowRolls(t *testing.T) {
	clk := &fakeClock{}
	m := NewWithClock(clk.Now)
	if err := m.Register("free", Config{MaxConcurrent: Unlimited}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{DefaultTenant, "free"} {
		release := func(n int64) {
			g, err := m.Admit(context.Background(), name)
			if err != nil {
				t.Fatal(err)
			}
			g.Release(n)
		}
		release(100)
		clk.Advance(5 * DefaultWindow)
		release(7)
		if st, _ := m.Tenant(name); st.WindowBytes != 7 || st.BytesScanned != 107 {
			t.Fatalf("%s: WindowBytes %d, BytesScanned %d; want 7 and 107", name, st.WindowBytes, st.BytesScanned)
		}
	}
}

func TestCancelQueuedAdmissionFreesSlot(t *testing.T) {
	m := New()
	if err := m.Register("a", Config{MaxConcurrent: 1, MaxQueueDepth: 1}); err != nil {
		t.Fatal(err)
	}
	g, err := m.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := m.Admit(ctx, "a")
		errc <- err
	}()
	waitForQueued(t, m, "a", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled admit: %v, want context.Canceled", err)
	}
	// The queue slot freed: another waiter fits, and releasing the running
	// grant hands the slot to it — not to the cancelled waiter.
	st, _ := m.Tenant("a")
	if st.Queued != 0 {
		t.Fatalf("queued = %d after cancel, want 0", st.Queued)
	}
	done := make(chan *Grant, 1)
	go func() {
		g2, err := m.Admit(context.Background(), "a")
		if err != nil {
			t.Error(err)
		}
		done <- g2
	}()
	waitForQueued(t, m, "a", 1)
	g.Release(0)
	g2 := <-done
	g2.Release(0)
	st, _ = m.Tenant("a")
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("occupancy after drain: %+v", st)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	m := New()
	if err := m.Register("a", Config{MaxConcurrent: 2, MaxQueueDepth: 0}); err != nil {
		t.Fatal(err)
	}
	g, err := m.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	g.Release(5)
	g.Release(5) // no-op: must not double-free or double-charge
	st, _ := m.Tenant("a")
	if st.Running != 0 || st.BytesScanned != 5 {
		t.Fatalf("after double release: %+v", st)
	}
	var nilGrant *Grant
	nilGrant.Release(1) // nil-safe
}

func TestReconfigureTenant(t *testing.T) {
	m := New()
	if err := m.Register("a", Config{Weight: 2, MaxConcurrent: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Admit(context.Background(), "a"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("zero quota must reject, got %v", err)
	}
	if err := m.Register("a", Config{Weight: 4, MaxConcurrent: 1}); err != nil {
		t.Fatal(err)
	}
	if m.Weight("a") != 4 {
		t.Fatalf("weight = %d, want 4", m.Weight("a"))
	}
	g, err := m.Admit(context.Background(), "a")
	if err != nil {
		t.Fatalf("post-reconfigure admit: %v", err)
	}
	g.Release(0)
}

func TestRegisterValidation(t *testing.T) {
	m := New()
	if err := m.Register("", Config{}); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := m.Register("a", Config{Weight: -1}); err == nil {
		t.Fatal("negative weight must fail")
	}
	if err := m.Register("a", Config{}); err != nil {
		t.Fatal(err)
	}
	if m.Weight("a") != 1 {
		t.Fatalf("zero weight must normalize to 1, got %d", m.Weight("a"))
	}
}

func TestTenantFromContext(t *testing.T) {
	ctx := context.Background()
	if got := TenantFrom(ctx); got != DefaultTenant {
		t.Fatalf("bare context tenant = %q", got)
	}
	if got := TenantFrom(WithTenant(ctx, "analytics")); got != "analytics" {
		t.Fatalf("tenant = %q", got)
	}
	if got := TenantFrom(WithTenant(ctx, "")); got != DefaultTenant {
		t.Fatalf("empty tenant = %q, want default", got)
	}
}

// TestConcurrentAdmitRelease is the -race smoke: admissions, cancellations
// and releases from many goroutines must leave occupancy at zero.
func TestConcurrentAdmitRelease(t *testing.T) {
	m := New()
	if err := m.Register("a", Config{MaxConcurrent: 4, MaxQueueDepth: Unlimited}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var admitted atomic.Int64
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx := context.Background()
				if (i+j)%5 == 0 {
					// Some admissions race a cancellation.
					c, cancel := context.WithCancel(ctx)
					cancel()
					ctx = c
				}
				g, err := m.Admit(ctx, "a")
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("admit: %v", err)
					}
					continue
				}
				admitted.Add(1)
				g.Release(1)
			}
		}()
	}
	wg.Wait()
	st, _ := m.Tenant("a")
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("leaked occupancy: %+v", st)
	}
	if st.BytesScanned != admitted.Load() {
		t.Fatalf("bytes %d != admitted %d", st.BytesScanned, admitted.Load())
	}
}
