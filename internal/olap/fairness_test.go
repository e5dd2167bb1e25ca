package olap

import (
	"context"
	"math"
	"sync"
	"testing"

	"elastichtap/internal/topology"
)

// TestDRRSharesMatchWeights drives the dispatcher synchronously — no
// workers, grab called directly under the engine lock — so the measured
// shares are fully deterministic: while every tenant stays backlogged,
// deficit-round-robin hands each tenant morsels in exact proportion to
// its weight, within one quantum per tenant.
func TestDRRSharesMatchWeights(t *testing.T) {
	const rows = 16384 * 16 // 16 morsels per task
	tab := buildTable(rows)
	e := NewEngine(1) // no placement: no workers compete with the test
	src := Source{Table: tab, Parts: []Part{{Data: tab.Active(), Lo: 0, Hi: rows, Socket: 0}}}

	weights := map[string]int{"gold": 4, "silver": 2, "bronze": 1}
	for name, w := range weights {
		// Two tasks per tenant: dispatch must also round-robin correctly
		// when a tenant's backlog spans tasks.
		for i := 0; i < 2; i++ {
			if _, err := e.SubmitTenant(&sumQuery{exec: &sumExec{}}, src, TenantInfo{Name: name, Weight: w}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Serve 7 full DRR rounds (4+2+1 = 7 morsels per round); every tenant
	// still has backlog afterwards (32 morsels each, gold spends 28), so
	// the measured shares are the steady-state contention shares.
	const serve = 7 * 7
	e.mu.Lock()
	for i := 0; i < serve; i++ {
		task, _, _ := e.grab(0)
		if task == nil {
			e.mu.Unlock()
			t.Fatalf("dispatcher ran dry after %d grabs", i)
		}
	}
	e.mu.Unlock()

	disp := e.TenantDispatch()
	var total int64
	for _, n := range disp {
		total += n
	}
	if total != serve {
		t.Fatalf("dispatched %d morsels, want %d", total, serve)
	}
	for name, w := range weights {
		wantShare := float64(w) / 7
		gotShare := float64(disp[name]) / float64(total)
		if math.Abs(gotShare-wantShare) > 0.01 {
			t.Errorf("tenant %s share = %.4f, want %.4f (dispatch %v)", name, gotShare, wantShare, disp)
		}
	}
}

// TestDRRIdleTenantYieldsPool: with only one tenant backlogged, it
// receives every morsel — weights bound contention shares, they never
// leave the pool idle.
func TestDRRIdleTenantYieldsPool(t *testing.T) {
	const rows = 16384 * 8
	tab := buildTable(rows)
	e := NewEngine(1)
	src := Source{Table: tab, Parts: []Part{{Data: tab.Active(), Lo: 0, Hi: rows, Socket: 0}}}

	// Register a heavyweight tenant by completing a task for it first, so
	// its (empty) queue sits in the ring ahead of the light tenant.
	heavy, err := e.SubmitTenant(&sumQuery{exec: &sumExec{}}, src, TenantInfo{Name: "heavy", Weight: 100})
	if err != nil {
		t.Fatal(err)
	}
	e.SetPlacement(topology.Placement{PerSocket: []int{2}})
	if _, _, err := heavy.WaitContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.SetPlacement(topology.Placement{PerSocket: []int{0}})
	// The shrink is asynchronous (see SetPlacement): wait for the retiring
	// workers to exit, or the caretaker claims light's morsels ahead of the
	// manual grab loop below.
	e.mu.Lock()
	for e.nlive > 0 {
		e.cond.Wait()
	}
	e.mu.Unlock()

	light, err := e.SubmitTenant(&sumQuery{exec: &sumExec{}}, src, TenantInfo{Name: "light", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	e.mu.Lock()
	var served int
	for {
		task, mi, _ := e.grab(0)
		if task == nil {
			break
		}
		served++
		task.noteClaim(0, mi, true)
		e.mu.Unlock()
		task.runMorsel(mi, &sc)
		e.mu.Lock()
		task.finishMorsel()
	}
	e.mu.Unlock()
	if served != 8 {
		t.Fatalf("light tenant served %d morsels alone, want all 8", served)
	}
	if _, _, err := light.WaitContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestTenantNoStarvationUnderContention is the -race smoke for the
// tenant-aware pool: heavily skewed weights submitting concurrently on a
// small pool must all complete — DRR throttles, it never starves.
func TestTenantNoStarvationUnderContention(t *testing.T) {
	const rows = 16384 * 4
	tab := buildTable(rows)
	e := NewEngine(2)
	e.SetPlacement(topology.Placement{PerSocket: []int{1, 1}})
	defer e.Close()
	src := Source{Table: tab, Parts: []Part{
		{Data: tab.Active(), Lo: 0, Hi: rows / 2, Socket: 0},
		{Data: tab.Active(), Lo: rows / 2, Hi: rows, Socket: 1},
	}}

	tenants := []TenantInfo{
		{Name: "whale", Weight: 16},
		{Name: "minnow", Weight: 1},
		{Name: "shrimp", Weight: 1},
	}
	var wg sync.WaitGroup
	for _, tn := range tenants {
		tn := tn
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, _, err := e.ExecuteTenantContext(context.Background(), &sumQuery{exec: &sumExec{}}, src, tn)
				if err != nil {
					t.Errorf("tenant %s: %v", tn.Name, err)
					return
				}
				want := float64(rows) * (rows - 1) / 2
				if res.Rows[0][0] != want {
					t.Errorf("tenant %s: sum = %v, want %v", tn.Name, res.Rows[0][0], want)
				}
			}()
		}
	}
	wg.Wait()
	disp := e.TenantDispatch()
	perTask := int64((rows + 16383) / 16384)
	for _, tn := range tenants {
		if disp[tn.Name] != 4*perTask {
			t.Errorf("tenant %s dispatched %d morsels, want %d", tn.Name, disp[tn.Name], 4*perTask)
		}
	}
}
