package olap

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elastichtap/internal/costmodel"
	"elastichtap/internal/topology"
)

// cancelGateExec blocks every Consume until release is closed and counts the
// morsels that actually ran, so tests control exactly when workers sit
// mid-morsel.
type cancelGateExec struct {
	started  chan struct{} // one send per Consume entry
	release  chan struct{}
	consumed atomic.Int64
}

type cancelGateLocal struct{ e *cancelGateExec }

func (l *cancelGateLocal) Consume(b Block) {
	select {
	case l.e.started <- struct{}{}:
	default:
	}
	<-l.e.release
	l.e.consumed.Add(1)
}

func (e *cancelGateExec) NewLocal() Local { return &cancelGateLocal{e: e} }
func (e *cancelGateExec) Merge(locals []Local) Result {
	return Result{Cols: []string{"n"}, Rows: [][]float64{{float64(e.consumed.Load())}}}
}

// awaitCancelDelivery blocks until the task's cancellation (delivered
// asynchronously by context.AfterFunc) has marked the task, so tests can
// release gated morsels knowing no further queue work will be claimed.
func awaitCancelDelivery(t *testing.T, e *Engine, task *Task) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		e.mu.Lock()
		marked := task.err != nil
		e.mu.Unlock()
		if marked {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("cancellation never delivered")
}

type cancelGateQuery struct{ exec *cancelGateExec }

func (q *cancelGateQuery) Name() string               { return "gate" }
func (q *cancelGateQuery) Class() costmodel.WorkClass { return costmodel.ScanReduce }
func (q *cancelGateQuery) FactTable() string          { return "t" }
func (q *cancelGateQuery) Columns() []int             { return []int{0} }
func (q *cancelGateQuery) Prepare() (Exec, int64)     { return q.exec, 0 }

// TestCancelDiscardsUnclaimedMorsels holds two workers mid-morsel,
// cancels, and verifies the remaining queue is dropped: cancellation is
// observed within one morsel's work, the error wraps both ErrCancelled
// and the context cause, and the pool stays fully usable.
func TestCancelDiscardsUnclaimedMorsels(t *testing.T) {
	const n = 100_000 // 7 chunk-aligned morsels
	tab := buildTable(n)
	e := NewEngine(1)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{2}})
	src := Source{Table: tab, Parts: []Part{{Data: tab.Active(), Lo: 0, Hi: n, Socket: 0}}}

	exec := &cancelGateExec{started: make(chan struct{}, 16), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	task, err := e.SubmitTenant(&cancelGateQuery{exec: exec}, src, TenantInfo{})
	if err != nil {
		t.Fatal(err)
	}
	stats := make(chan Stats, 1)
	werr := make(chan error, 1)
	go func() {
		_, st, werr2 := task.WaitContext(ctx)
		stats <- st
		werr <- werr2
	}()
	<-exec.started // at least one worker is mid-morsel
	cancel()
	awaitCancelDelivery(t, e, task)
	close(exec.release)
	st, err := <-stats, <-werr
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	// At most one in-flight morsel per worker ran to completion; the rest
	// of the queue was discarded at the cancel.
	if got := exec.consumed.Load(); got > 2 {
		t.Fatalf("consumed %d morsels after cancel, want <= 2 (one per worker)", got)
	}
	if st.Morsels != 7 {
		t.Fatalf("morsels = %d, want 7", st.Morsels)
	}

	// The pool must be intact: a follow-up query on the same engine
	// computes the exact sum.
	res, _, err := e.ExecuteContext(context.Background(), &sumQuery{exec: &sumExec{}}, src)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n) * (n - 1) / 2; res.Rows[0][0] != want {
		t.Fatalf("follow-up sum = %v, want %v", res.Rows[0][0], want)
	}
}

// TestCancelBeforeAnyWork cancels a context before submission: the
// execute call must fail without touching the pool.
func TestCancelBeforeAnyWork(t *testing.T) {
	tab := buildTable(1000)
	e := NewEngine(1)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{1}})
	src := Source{Table: tab, Parts: []Part{{Data: tab.Active(), Lo: 0, Hi: 1000, Socket: 0}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := e.ExecuteContext(ctx, &sumQuery{exec: &sumExec{}}, src)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// TestCancelOnEmptyPoolInlineDrain cancels while the submitting goroutine
// is the only drainer (zero placement): the drain must stop at the next
// morsel boundary instead of finishing the scan.
func TestCancelOnEmptyPoolInlineDrain(t *testing.T) {
	const n = 100_000
	tab := buildTable(n)
	e := NewEngine(1) // pool stays empty: no SetPlacement
	defer e.Close()
	src := Source{Table: tab, Parts: []Part{{Data: tab.Active(), Lo: 0, Hi: n, Socket: 0}}}

	exec := &cancelGateExec{started: make(chan struct{}, 16), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	task, err := e.SubmitTenant(&cancelGateQuery{exec: exec}, src, TenantInfo{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _, werr := task.WaitContext(ctx)
		done <- werr
	}()
	<-exec.started // inline drainer is mid-morsel
	cancel()
	awaitCancelDelivery(t, e, task)
	close(exec.release)
	if werr := <-done; !errors.Is(werr, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", werr)
	}
	if got := exec.consumed.Load(); got > 1 {
		t.Fatalf("inline drain consumed %d morsels after cancel, want <= 1", got)
	}
}

// TestCancelRacesResizeAndSecondQuery exercises cancel against work
// stealing, mid-query pool resizes and a concurrent uncancelled query
// under the race detector: the survivor must stay exact every round.
func TestCancelRacesResizeAndSecondQuery(t *testing.T) {
	const n = 200_000
	tab := buildTable(n)
	e := NewEngine(2)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{2, 2}})
	// Half the rows homed per socket so stealing has cross-socket work.
	src := Source{Table: tab, Parts: []Part{
		{Data: tab.Active(), Lo: 0, Hi: n / 2, Socket: 0},
		{Data: tab.Active(), Lo: n / 2, Hi: n, Socket: 1},
	}}
	want := float64(n) * (n - 1) / 2

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // elastic resize churn
		defer wg.Done()
		sizes := []topology.Placement{
			{PerSocket: []int{1, 3}},
			{PerSocket: []int{3, 1}},
			{PerSocket: []int{2, 2}},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.SetPlacement(sizes[i%len(sizes)])
		}
	}()
	for round := 0; round < 30; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		victim, err := e.SubmitTenant(&sumQuery{exec: &sumExec{}}, src, TenantInfo{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cancel() // races claim/steal/finish on the victim
		}()
		res, _, err := e.ExecuteContext(context.Background(), &sumQuery{exec: &sumExec{}}, src)
		if err != nil {
			t.Fatalf("round %d: survivor: %v", round, err)
		}
		if res.Rows[0][0] != want {
			t.Fatalf("round %d: survivor sum = %v, want %v", round, res.Rows[0][0], want)
		}
		if _, _, err := victim.WaitContext(ctx); err != nil && !errors.Is(err, ErrCancelled) {
			t.Fatalf("round %d: victim err = %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
}
