package elastichtap

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elastichtap/internal/ch"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/olap"
	"elastichtap/query"
)

// sessionGate is an olap.Query over the real orderline table whose
// execution blocks until released, so tests cancel mid-execution at a
// known point.
type sessionGate struct {
	started  chan struct{}
	release  chan struct{}
	consumed atomic.Int64
}

type sessionGateLocal struct{ g *sessionGate }

func (l *sessionGateLocal) Consume(b olap.Block) {
	select {
	case l.g.started <- struct{}{}:
	default:
	}
	<-l.g.release
	l.g.consumed.Add(1)
}

func (g *sessionGate) Name() string               { return "gate" }
func (g *sessionGate) Class() costmodel.WorkClass { return costmodel.ScanReduce }
func (g *sessionGate) FactTable() string          { return "orderline" }
func (g *sessionGate) Columns() []int             { return []int{0} }
func (g *sessionGate) Prepare() (olap.Exec, int64) {
	return g, 0
}
func (g *sessionGate) NewLocal() olap.Local { return &sessionGateLocal{g: g} }
func (g *sessionGate) Merge(locals []olap.Local) olap.Result {
	return olap.Result{Cols: []string{"n"}, Rows: [][]float64{{float64(g.consumed.Load())}}}
}

// TestSubmitCancelMidExecution drives the acceptance scenario end to end:
// a query cancelled mid-execution fails with an error wrapping both
// ErrCancelled and context.Canceled, and a follow-up query on the same
// System produces results identical to a never-cancelled twin system.
func TestSubmitCancelMidExecution(t *testing.T) {
	sys, db := newSystem(t)
	defer sys.Close()
	sys.Run(200)

	// Cancellation delivery (context.AfterFunc) is asynchronous: a cancel
	// racing the release of the gated morsel may legitimately lose and
	// keep the successful result. Retry the scenario until the cancel
	// wins — with the 100ms head start it wins on the first attempt in
	// practice; the loop only absorbs pathological scheduler stalls.
	var h *Handle
	cancelled := false
	for attempt := 0; attempt < 5 && !cancelled; attempt++ {
		gate := &sessionGate{started: make(chan struct{}, 64), release: make(chan struct{})}
		var err error
		h, err = sys.Submit(context.Background(), gate)
		if err != nil {
			t.Fatal(err)
		}
		<-gate.started // a worker is mid-morsel
		if _, err := h.Report(); !errors.Is(err, ErrPending) {
			t.Fatalf("Report before completion = %v, want ErrPending", err)
		}
		h.Cancel()
		time.Sleep(100 * time.Millisecond)
		close(gate.release)
		_, err = h.Wait()
		switch {
		case errors.Is(err, ErrCancelled) && errors.Is(err, context.Canceled):
			cancelled = true
		case err == nil:
			t.Logf("attempt %d: cancel lost the completion race; retrying", attempt)
		default:
			t.Fatalf("Wait = %v, want ErrCancelled wrapping context.Canceled", err)
		}
	}
	if !cancelled {
		t.Fatal("cancellation never beat completion across 5 attempts")
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done channel still open after Wait")
	}
	if _, err := h.Report(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Report after cancel = %v, want ErrCancelled", err)
	}
	h.Cancel() // cancelling a finished handle is a no-op

	// Placement and pool must be consistent: the same System answers a
	// follow-up exactly like a twin that never saw the cancellation.
	got, err := sys.QueryContext(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	twin, tdb := newSystem(t)
	defer twin.Close()
	twin.Run(200)
	want, err := twin.QueryContext(context.Background(), Q6(tdb))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("post-cancel result diverged:\n got %+v\nwant %+v", got.Result, want.Result)
	}
}

// TestQueryContextPreCancelled verifies the admission-entry checkpoint:
// an already-cancelled context never reaches the engine.
func TestQueryContextPreCancelled(t *testing.T) {
	sys, db := newSystem(t)
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.QueryContext(ctx, Q6(db)); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// TestDeadlineExpiryDuringAdmission forces ETL-heavy admissions (α=0
// migrates to S2 on any fresh byte) under deadlines that expire while
// the protocol runs — including between the switch and the ETL and right
// after the ETL copy. Whatever phase the expiry lands in, the error must
// carry context.DeadlineExceeded, and the exchange must stay consistent:
// afterwards an S2 (replica) read and an S1 (snapshot) read of the same
// data agree exactly, and the post-ETL freshness-rate returns to 1.
func TestDeadlineExpiryDuringAdmission(t *testing.T) {
	sys, err := New(WithAlpha(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	db := sys.LoadCH(0.005, 1)
	if err := sys.StartWorkload(0); err != nil {
		t.Fatal(err)
	}

	expired := 0
	for round := 0; round < 8; round++ {
		sys.Run(300) // accumulate fresh bytes so admission must ETL
		// Deadlines from "already past" to "expires mid-protocol".
		d := time.Duration(round) * 50 * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), d)
		_, qerr := sys.QueryContext(ctx, Q6(db))
		cancel()
		if qerr != nil {
			if !errors.Is(qerr, ErrCancelled) || !errors.Is(qerr, context.DeadlineExceeded) {
				t.Fatalf("round %d: err = %v, want ErrCancelled wrapping DeadlineExceeded", round, qerr)
			}
			expired++
		}
	}
	if expired == 0 {
		t.Skip("no deadline expired on this machine; nothing to verify")
	}

	// Replicas and snapshots must agree after the abandoned admissions:
	// the same logical data through both access paths, and a complete
	// ETL (α=0 forces S2) restores freshness-rate 1.
	s2, err := sys.QueryContext(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	if s2.State != S2 {
		t.Fatalf("state = %v, want S2 under α=0", s2.State)
	}
	if rate, _ := sys.Freshness(); rate != 1 {
		t.Fatalf("freshness after ETL = %v, want 1", rate)
	}
	s1, err := sys.QueryInStateContext(context.Background(), Q6(db), S1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Result, s2.Result) {
		t.Fatalf("snapshot/replica diverged after deadline churn:\n S1 %+v\n S2 %+v", s1.Result, s2.Result)
	}
}

// TestSubmitManyClients fans out concurrent submissions from many client
// goroutines: admission serializes, executions share the pool, and every
// handle resolves to the deterministic result of its query.
func TestSubmitManyClients(t *testing.T) {
	sys, db := newSystem(t)
	defer sys.Close()
	sys.Run(200)

	queries := []Query{Q1(db), Q6(db), Q18(db), Q19(db)}
	// References from sequential execution (results are deterministic per
	// query because the OLTP workload is quiescent).
	want := make([]olap.Result, len(queries))
	for i, q := range queries {
		rep, err := sys.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.Result
	}

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(queries))
	for c := 0; c < clients; c++ {
		for i, q := range queries {
			h, err := sys.Submit(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(i int, h *Handle) {
				defer wg.Done()
				rep, err := h.Wait()
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(rep.Result, want[i]) {
					t.Errorf("%s: async result diverged from sequential", rep.Query)
				}
			}(i, h)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCancellationRaces hammers cancellation against a live second query,
// scheduler migrations and the transactional workload under -race: every
// cancelled call fails typed, every surviving call stays correct.
func TestCancellationRaces(t *testing.T) {
	sys, db := newSystem(t)
	defer sys.Close()
	sys.Run(200)
	ref, err := sys.QueryContext(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // migration churn resizes the pool mid-query
		defer wg.Done()
		states := []State{S1, S2, S3NI, S3IS}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sys.Core().Sched.MigrateTo(states[i%len(states)])
		}
	}()
	wg.Add(1)
	go func() { // steady uncancelled query stream
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep, err := sys.QueryContext(context.Background(), Q6(db))
			if err != nil {
				t.Errorf("survivor: %v", err)
				return
			}
			if !reflect.DeepEqual(rep.Result, ref.Result) {
				t.Errorf("survivor result diverged")
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		ctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(rng.Intn(2000))*time.Microsecond)
		_, err := sys.QueryContext(ctx, Q1(db))
		cancel()
		if err != nil && !errors.Is(err, ErrCancelled) {
			t.Fatalf("round %d: err = %v, want nil or ErrCancelled", round, err)
		}
	}
	close(stop)
	wg.Wait()

	// The system must still be exact after all that churn.
	rep, err := sys.QueryContext(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Result, ref.Result) {
		t.Fatal("final result diverged after cancellation churn")
	}
}

// TestCloseTyped covers the ErrClosed satellite: idempotent Close,
// typed rejections for every entry point, and drain-then-reject under
// concurrent in-flight queries.
func TestCloseTyped(t *testing.T) {
	sys, db := newSystem(t)
	sys.Run(100)

	// In-flight queries racing Close either complete or fail typed.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sys.QueryContext(context.Background(), Q6(db)); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("in-flight query: err = %v, want nil or ErrClosed", err)
			}
		}()
	}
	var cg sync.WaitGroup
	for i := 0; i < 3; i++ { // concurrent, idempotent Close
		cg.Add(1)
		go func() {
			defer cg.Done()
			sys.Close()
		}()
	}
	cg.Wait()
	wg.Wait()

	if _, err := sys.QueryContext(context.Background(), Q6(db)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
	if _, err := sys.QueryBatchContext(context.Background(), []Query{Q6(db)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("QueryBatch after Close = %v, want ErrClosed", err)
	}
	h, err := sys.Submit(context.Background(), Q6(db))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close resolved to %v, want ErrClosed", err)
	}
	stmt, err := sys.Prepare(ch.Q6PlanParam())
	if err != nil {
		t.Fatal(err) // Prepare only binds; it needs no pool
	}
	q, err := stmt.WithArgs(ch.Q6Args(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.QueryContext(context.Background(), q); !errors.Is(err, ErrClosed) {
		t.Fatalf("stamped statement after Close = %v, want ErrClosed", err)
	}
	sys.Close() // still a no-op
}

// TestTableFreshness covers the Freshness satellite: per-table rates
// reflect exactly the tables a workload touches.
func TestTableFreshness(t *testing.T) {
	sys, db := newSystem(t)
	defer sys.Close()

	rate, fresh, err := sys.TableFreshness("orderline")
	if err != nil || rate != 1 || fresh != 0 {
		t.Fatalf("pristine orderline: rate=%v fresh=%d err=%v, want 1,0,nil", rate, fresh, err)
	}
	if _, _, err := sys.TableFreshness("nope"); err == nil {
		t.Fatal("unknown table must error")
	}

	sys.Run(500) // NewOrder-only: inserts into orders/orderline, updates stock/district

	olRate, olFresh, err := sys.TableFreshness("orderline")
	if err != nil {
		t.Fatal(err)
	}
	if olRate >= 1 || olFresh <= 0 {
		t.Fatalf("orderline after NewOrders: rate=%v fresh=%d, want stale", olRate, olFresh)
	}
	// Item is never written by the mix: its isolated rate must stay 1
	// even while the system-wide blend is below 1.
	itRate, itFresh, err := sys.TableFreshness("item")
	if err != nil {
		t.Fatal(err)
	}
	if itRate != 1 || itFresh != 0 {
		t.Fatalf("item: rate=%v fresh=%d, want 1,0", itRate, itFresh)
	}
	sysRate, sysFresh := sys.Freshness()
	if sysRate >= 1 || sysFresh < olFresh {
		t.Fatalf("system-wide: rate=%v fresh=%d, want blended staleness covering orderline", sysRate, sysFresh)
	}
	_ = db
}

// TestStmtLifecycle exercises the facade statement API: parameter
// reflection, stamped execution, argument validation, and concurrent
// reuse of one statement.
func TestStmtLifecycle(t *testing.T) {
	sys, db := newSystem(t)
	defer sys.Close()
	sys.Run(200)

	stmt, err := sys.Prepare(query.Scan("orderline").
		Named("weekly").
		Filter(query.Ge("ol_delivery_d", query.Param("since"))).
		GroupBy("ol_w_id").
		Agg(query.Sum("ol_amount").As("revenue"), query.Count()))
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.ParamNames(); !reflect.DeepEqual(got, []string{"since"}) {
		t.Fatalf("ParamNames = %v", got)
	}

	if _, err := stmt.WithArgs(nil); err == nil {
		t.Fatal("missing argument must fail")
	}
	if _, err := stmt.WithArgs(Args{"since": 0, "extra": 1}); err == nil {
		t.Fatal("unknown argument must fail")
	}
	if _, err := stmt.WithArgs(Args{"since": "yesterday"}); !errors.Is(err, query.ErrPredType) {
		t.Fatalf("wrongly-typed argument = %v, want ErrPredType", err)
	}
	if _, err := sys.QueryContext(context.Background(), stmt); err == nil {
		t.Fatal("unstamped statement must fail")
	}

	// The stamped statement must equal an inline-literal bind, and one
	// statement must serve concurrent executions with different args.
	day := db.Day()
	wantRep := func(since int64) olap.Result {
		q, err := sys.Prepare(query.Scan("orderline").
			Named("weekly").
			Filter(query.Ge("ol_delivery_d", since)).
			GroupBy("ol_w_id").
			Agg(query.Sum("ol_amount").As("revenue"), query.Count()))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Result
	}
	sinces := []int64{0, day - 7, day}
	want := make([]olap.Result, len(sinces))
	for i, s := range sinces {
		want[i] = wantRep(s)
	}
	var wg sync.WaitGroup
	for i, s := range sinces {
		wg.Add(1)
		go func(i int, s int64) {
			defer wg.Done()
			q, err := stmt.WithArgs(Args{"since": s})
			if err != nil {
				t.Errorf("since=%d: %v", s, err)
				return
			}
			rep, err := sys.QueryContext(context.Background(), q)
			if err != nil {
				t.Errorf("since=%d: %v", s, err)
				return
			}
			if !reflect.DeepEqual(rep.Result, want[i]) {
				t.Errorf("since=%d: stamped result != literal bind", s)
			}
		}(i, s)
	}
	wg.Wait()
}
