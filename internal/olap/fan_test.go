package olap

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elastichtap/internal/topology"
)

// fanExec is fsumExec with a merge that fans n parts. Each part counts
// its runs and whether the waiting goroutine (the one MergeFan runs on)
// ran it; hook, when set, runs first. entry, when set, runs as MergeFan
// begins.
type fanExec struct {
	fsumExec
	n        int
	entry    func()
	hook     func(f *fanExec, i int)
	waiter   string
	ran      []atomic.Int32
	byWaiter atomic.Int32
	done     atomic.Int32
	started  atomic.Int32
}

func newFanExec(n int, hook func(f *fanExec, i int)) *fanExec {
	return &fanExec{n: n, hook: hook, ran: make([]atomic.Int32, n)}
}

func (f *fanExec) MergeFan(locals []Local, fan Fan) Result {
	f.waiter = goid()
	if f.entry != nil {
		f.entry()
	}
	fan(f.n, func(i int) {
		f.started.Add(1)
		if f.hook != nil {
			f.hook(f, i)
		}
		if goid() == f.waiter {
			f.byWaiter.Add(1)
		}
		f.ran[i].Add(1)
		f.done.Add(1)
	})
	return f.Merge(locals)
}

// execOut is one execution's outcome, handed back from its goroutine.
type execOut struct {
	res Result
	err error
}

// goid is the calling goroutine's id, from the first line of its stack
// trace ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// checkRanOnce fails unless every part ran exactly once.
func (f *fanExec) checkRanOnce(t *testing.T) {
	t.Helper()
	for i := range f.ran {
		if got := f.ran[i].Load(); got != 1 {
			t.Errorf("part %d of %d ran %d times, want 1", i, f.n, got)
		}
	}
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting after 10 s for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFanZeroPlacementRunsOnWaiter merges on a pool that never had a
// worker: the goroutine waiting on the task scans every morsel and then
// runs every merge part, each once, and the parts count toward the
// tenant's dispatch like morsels.
func TestFanZeroPlacementRunsOnWaiter(t *testing.T) {
	src := nineMorselSource(t)
	want := referenceResult(t, func() Exec { return &fsumExec{} }, src)
	e := NewEngine(2)
	defer e.Close()
	f := newFanExec(7, nil)
	res, _, err := e.ExecuteContext(context.Background(), &poolQuery{exec: f}, src)
	if err != nil {
		t.Fatal(err)
	}
	f.checkRanOnce(t)
	if got := f.byWaiter.Load(); got != int32(f.n) {
		t.Fatalf("the waiting goroutine ran %d of %d parts, want all", got, f.n)
	}
	if got, want := e.TenantDispatch()["default"], int64(9+f.n); got != want {
		t.Fatalf("dispatched %d, want %d: 9 morsels and %d parts", got, want, f.n)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("result diverged: %v != %v", res.Rows, want.Rows)
	}
}

// TestFanShrinkToZeroCaretakerFinishes revokes every core while both
// workers are inside merge parts. The waiting goroutine is held inside
// its own part until all the others are done, so only the caretaker (the
// lowest-id retiring worker, see Engine.mayExit) can run the parts still
// queued: the merge finishes only if it does.
func TestFanShrinkToZeroCaretakerFinishes(t *testing.T) {
	src := nineMorselSource(t)
	want := referenceResult(t, func() Exec { return &fsumExec{} }, src)
	e := NewEngine(2)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{1, 1}})

	gate, othersDone := make(chan struct{}), make(chan struct{})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	releaseWaiter := sync.OnceFunc(func() { close(othersDone) })
	defer releaseWaiter() // a failed wait must not leave the pool blocked for Close
	defer releaseGate()
	f := newFanExec(8, func(f *fanExec, i int) {
		if goid() == f.waiter {
			<-othersDone
			return
		}
		<-gate
	})
	got := make(chan execOut, 1)
	go func() {
		res, _, err := e.ExecuteContext(context.Background(), &poolQuery{exec: f}, src)
		got <- execOut{res, err}
	}()
	waitFor(t, "both workers and the waiter inside a part", func() bool { return f.started.Load() == 3 })

	e.SetPlacement(topology.Placement{PerSocket: []int{0, 0}})
	if n := e.PoolSize(); n != 0 {
		t.Fatalf("pool size = %d, want 0", n)
	}
	releaseGate()
	waitFor(t, "the caretaker to run every part but the waiter's", func() bool { return f.done.Load() == int32(f.n-1) })
	releaseWaiter()

	var r execOut
	select {
	case r = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the merge did not finish 10 s after its last part was released")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	f.checkRanOnce(t)
	if n := f.byWaiter.Load(); n != 1 {
		t.Fatalf("the waiting goroutine ran %d parts, want 1", n)
	}
	if !reflect.DeepEqual(r.res, want) {
		t.Fatalf("result diverged: %v != %v", r.res.Rows, want.Rows)
	}
}

// TestFanTwoTenantsAtOnce runs two tenants' merges at the same time on
// one pool: both fans start only once both scans are done (a worker held
// in one tenant's part could not scan for the other), and their parts
// are held until each fan has one in flight. No part of either is lost
// or run twice, each tenant's dispatch counts its own morsels and parts,
// and both results match.
func TestFanTwoTenantsAtOnce(t *testing.T) {
	src := nineMorselSource(t)
	want := referenceResult(t, func() Exec { return &fsumExec{} }, src)
	e := NewEngine(2)
	defer e.Close()
	e.SetPlacement(topology.Placement{PerSocket: []int{1, 1}})

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failed wait must not leave the pool blocked for Close
	var arrived sync.WaitGroup
	arrived.Add(2)
	fans := map[string]*fanExec{"a": newFanExec(6, nil), "b": newFanExec(11, nil)}
	for _, f := range fans {
		f.entry = func() { arrived.Done(); arrived.Wait() }
		f.hook = func(*fanExec, int) { <-gate }
	}
	got := make(chan execOut, len(fans))
	for name, f := range fans {
		go func() {
			res, _, err := e.ExecuteTenantContext(context.Background(), &poolQuery{exec: f}, src, TenantInfo{Name: name, Weight: len(name)})
			got <- execOut{res, err}
		}()
	}
	waitFor(t, "both merges to be in flight", func() bool {
		return fans["a"].started.Load() > 0 && fans["b"].started.Load() > 0
	})
	release()
	for range fans {
		r := <-got
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !reflect.DeepEqual(r.res, want) {
			t.Fatalf("result diverged: %v != %v", r.res.Rows, want.Rows)
		}
	}
	disp := e.TenantDispatch()
	for name, f := range fans {
		f.checkRanOnce(t)
		if got, want := disp[name], int64(9+f.n); got != want {
			t.Errorf("tenant %s dispatched %d, want %d: 9 morsels and %d parts", name, got, want, f.n)
		}
	}
}
