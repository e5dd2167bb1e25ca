package olap

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elastichtap/internal/costmodel"
	"elastichtap/internal/topology"
)

// fsumExec sums col0 scaled by 0.1 — a float accumulation whose bit
// pattern is sensitive to summation order, so equality checks prove the
// engine's morsel-ordered merge really is deterministic.
type fsumExec struct{}

type fsumLocal struct{ sum float64 }

func (l *fsumLocal) Consume(b Block) {
	for _, v := range b.Cols[0] {
		l.sum += float64(v) * 0.1
	}
}

func (e *fsumExec) NewLocal() Local { return &fsumLocal{} }

func (e *fsumExec) Merge(locals []Local) Result {
	var s float64
	for _, l := range locals {
		s += l.(*fsumLocal).sum
	}
	return Result{Cols: []string{"fsum"}, Rows: [][]float64{{s}}}
}

// gateExec blocks every Consume on a shared gate after counting entry,
// letting tests hold morsels in flight while they resize the pool.
type gateExec struct {
	entered atomic.Int64
	release chan struct{}
}

type gateLocal struct {
	g   *gateExec
	sum float64
}

func (l *gateLocal) Consume(b Block) {
	l.g.entered.Add(1)
	<-l.g.release
	for _, v := range b.Cols[0] {
		l.sum += float64(v) * 0.1
	}
}

func (g *gateExec) NewLocal() Local { return &gateLocal{g: g} }

func (g *gateExec) Merge(locals []Local) Result {
	var s float64
	for _, l := range locals {
		s += l.(*gateLocal).sum
	}
	return Result{Cols: []string{"fsum"}, Rows: [][]float64{{s}}}
}

// poolQuery adapts a prepared Exec into a Query for pool tests.
type poolQuery struct{ exec Exec }

func (q *poolQuery) Name() string               { return "pool" }
func (q *poolQuery) Class() costmodel.WorkClass { return costmodel.ScanReduce }
func (q *poolQuery) FactTable() string          { return "t" }
func (q *poolQuery) Columns() []int             { return []int{0} }
func (q *poolQuery) Prepare() (Exec, int64)     { return q.exec, 0 }

// nineMorselSource builds a table spanning nine chunk-aligned morsels.
func nineMorselSource(t testing.TB) Source {
	t.Helper()
	const n = 8*16384 + 1000
	tab := buildTable(n)
	return Source{Table: tab, Parts: []Part{
		{Data: tab.Active(), Lo: 0, Hi: n, Socket: 0},
	}}
}

// referenceResult executes the query single-worker on a fresh engine.
func referenceResult(t testing.TB, exec func() Exec, src Source) Result {
	t.Helper()
	e := NewEngine(2)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{1, 0}})
	res, _, err := e.ExecuteContext(context.Background(), &poolQuery{exec: exec()}, src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func waitEntered(t testing.TB, g *gateExec, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.entered.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers entered", g.entered.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMidQueryGrow demonstrates mid-query elasticity: growing the OLAP
// placement while a scan is in flight raises the worker count Stats
// observes, and the result stays byte-identical to the single-worker
// reference.
func TestMidQueryGrow(t *testing.T) {
	src := nineMorselSource(t)
	want := referenceResult(t, func() Exec { return &fsumExec{} }, src)

	e := NewEngine(2)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{1, 0}})
	g := &gateExec{release: make(chan struct{})}
	task, err := e.SubmitTenant(&poolQuery{exec: g}, src, TenantInfo{})
	if err != nil {
		t.Fatal(err)
	}
	waitEntered(t, g, 1) // the lone worker holds the first morsel

	e.SetPlacement(topology.Placement{PerSocket: []int{8, 0}})
	waitEntered(t, g, 8) // seven newcomers each claimed a queued morsel
	close(g.release)

	res, st, err := task.WaitContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 8 {
		t.Fatalf("workers = %d, want 8 after mid-query grow", st.Workers)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("grown result diverged: %v != %v", res.Rows, want.Rows)
	}
}

// TestMidQueryShrink retires workers while their morsels are in flight:
// they finish the morsel, exit, and the survivor drains the rest.
func TestMidQueryShrink(t *testing.T) {
	src := nineMorselSource(t)
	want := referenceResult(t, func() Exec { return &fsumExec{} }, src)

	e := NewEngine(2)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{4, 0}})
	g := &gateExec{release: make(chan struct{})}
	task, err := e.SubmitTenant(&poolQuery{exec: g}, src, TenantInfo{})
	if err != nil {
		t.Fatal(err)
	}
	waitEntered(t, g, 4)

	e.SetPlacement(topology.Placement{PerSocket: []int{1, 0}})
	if got := e.PoolSize(); got != 1 {
		t.Fatalf("pool size = %d, want 1 right after shrink", got)
	}
	close(g.release)

	res, st, err := task.WaitContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Fatalf("workers = %d, want the 4 that participated", st.Workers)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("shrunk result diverged: %v != %v", res.Rows, want.Rows)
	}
}

// TestShrinkToZeroStillCompletes revokes every core mid-query: the
// lowest-id retiring worker stays on as caretaker until the queues drain.
func TestShrinkToZeroStillCompletes(t *testing.T) {
	src := nineMorselSource(t)
	want := referenceResult(t, func() Exec { return &fsumExec{} }, src)

	e := NewEngine(2)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{2, 0}})
	g := &gateExec{release: make(chan struct{})}
	task, err := e.SubmitTenant(&poolQuery{exec: g}, src, TenantInfo{})
	if err != nil {
		t.Fatal(err)
	}
	waitEntered(t, g, 2)

	e.SetPlacement(topology.Placement{PerSocket: []int{0, 0}})
	if got := e.PoolSize(); got != 0 {
		t.Fatalf("pool size = %d, want 0", got)
	}
	close(g.release)

	res, st, err := task.WaitContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 {
		t.Fatalf("workers = %d, want 2", st.Workers)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("result diverged after shrink to zero: %v != %v", res.Rows, want.Rows)
	}
}

// TestStealAccounting homes all data on socket 0 with workers only on
// socket 1: every morsel must be stolen and the measured stolen bytes
// must cover the whole payload.
func TestStealAccounting(t *testing.T) {
	src := nineMorselSource(t)
	e := NewEngine(2)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{0, 4}})
	_, st, err := e.ExecuteContext(context.Background(), &poolQuery{exec: &fsumExec{}}, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.StolenMorsels != int64(st.Morsels) || st.LocalMorsels != 0 {
		t.Fatalf("stealing not measured: %+v", st)
	}
	if st.StolenBytesAt[0] != st.BytesAt[0] || st.StolenBytesAt[1] != 0 {
		t.Fatalf("stolen bytes %v, payload %v", st.StolenBytesAt, st.BytesAt)
	}

	// Workers co-located with the data steal nothing.
	e.SetPlacement(topology.Placement{PerSocket: []int{4, 0}})
	_, st, err = e.ExecuteContext(context.Background(), &poolQuery{exec: &fsumExec{}}, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.StolenMorsels != 0 || st.LocalMorsels != int64(st.Morsels) {
		t.Fatalf("affine dispatch should not steal: %+v", st)
	}
}

// TestConcurrentTasksSharePool submits queries from many goroutines while
// a resizer thrashes the placement; every result must be byte-identical
// to the single-worker reference (run with -race).
func TestConcurrentTasksSharePool(t *testing.T) {
	src := nineMorselSource(t)
	want := referenceResult(t, func() Exec { return &fsumExec{} }, src)

	e := NewEngine(2)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{2, 2}})

	stop := make(chan struct{})
	var resizer sync.WaitGroup
	resizer.Add(1)
	go func() {
		defer resizer.Done()
		shapes := []topology.Placement{
			{PerSocket: []int{1, 0}},
			{PerSocket: []int{8, 8}},
			{PerSocket: []int{0, 3}},
			{PerSocket: []int{4, 4}},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.SetPlacement(shapes[i%len(shapes)])
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, st, err := e.ExecuteContext(context.Background(), &poolQuery{exec: &fsumExec{}}, src)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res, want) {
					t.Errorf("concurrent result diverged: %v != %v", res.Rows, want.Rows)
					return
				}
				if st.Workers < 1 || st.Workers > st.Morsels {
					t.Errorf("workers = %d outside [1,%d]", st.Workers, st.Morsels)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	resizer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCloseDrainsAndRefuses verifies Close waits for queued work and that
// later submissions fail cleanly.
func TestCloseDrainsAndRefuses(t *testing.T) {
	src := nineMorselSource(t)
	e := NewEngine(2)
	e.SetPlacement(topology.Placement{PerSocket: []int{2, 0}})
	task, err := e.SubmitTenant(&poolQuery{exec: &fsumExec{}}, src, TenantInfo{})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, _, err := task.WaitContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitTenant(&poolQuery{exec: &fsumExec{}}, src, TenantInfo{}); err == nil {
		t.Fatal("submit after Close must fail")
	}
	if e.PoolSize() != 0 {
		t.Fatalf("pool size = %d after Close", e.PoolSize())
	}
}
