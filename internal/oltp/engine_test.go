package oltp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/txn"
)

func testSchema() columnar.Schema {
	return columnar.Schema{Name: "t", Columns: []columnar.ColumnDef{
		{Name: "k", Type: columnar.Int64},
		{Name: "v", Type: columnar.Int64},
	}}
}

// counterWorkload increments a single row per transaction.
type counterWorkload struct {
	ref   *txn.TableRef
	calls atomic.Int64
}

func (w *counterWorkload) Next(worker int) TxnFunc {
	w.calls.Add(1)
	return func(t *txn.Txn) error {
		return t.WriteFunc(w.ref, 0, 1, func(old int64) int64 { return old + 1 })
	}
}

func TestCreateTableAndLookup(t *testing.T) {
	e := NewEngine()
	h := e.CreateTable(testSchema(), 8, true)
	if h.Index == nil {
		t.Fatal("index requested but nil")
	}
	if e.Table("t") != h {
		t.Fatal("lookup by name failed")
	}
	if e.Table("missing") != nil {
		t.Fatal("missing table should be nil")
	}
	if len(e.Tables()) != 1 {
		t.Fatal("Tables() wrong")
	}
	h2 := e.CreateTable(columnar.Schema{Name: "u", Columns: testSchema().Columns}, 8, false)
	if h2.Index != nil {
		t.Fatal("index not requested but present")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate table name must panic")
		}
	}()
	e.CreateTable(testSchema(), 8, true)
}

// TestTablesKeepCreationOrder: the catalog has an order — every call
// returns the handles as they were created, also while tables are being
// added, and a caller appending to its copy cannot reach the catalog's.
func TestTablesKeepCreationOrder(t *testing.T) {
	e := NewEngine()
	names := []string{"m", "z", "a", "k", "b", "y", "c", "x", "d", "w", "e", "v"}
	var want []*TableHandle
	for _, n := range names {
		want = append(want, e.CreateTable(columnar.Schema{Name: n, Columns: testSchema().Columns}, 8, false))
		for rep := 0; rep < 3; rep++ {
			got := e.Tables()
			if len(got) != len(want) {
				t.Fatalf("Tables() has %d handles after %d creations", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Tables()[%d] is %q, created %q there", i, got[i].Table().Schema().Name, names[i])
				}
			}
		}
		if h := want[len(want)-1]; h.Replica == nil || h.Replica.Rows() != 0 {
			t.Fatalf("table %q created without an empty replica", n)
		}
	}
	held := e.Tables()
	_ = append(held, nil)
	last := e.CreateTable(columnar.Schema{Name: "last", Columns: testSchema().Columns}, 8, false)
	if got := e.Tables(); got[len(got)-1] != last {
		t.Fatal("appending to a returned slice took the catalog's next slot")
	}
}

func TestExecuteBatchCounts(t *testing.T) {
	e := NewEngine()
	h := e.CreateTable(testSchema(), 8, false)
	h.Table().AppendRows([][]int64{{0, 0}}, 0)
	w := &counterWorkload{ref: h.Ref}
	e.Workers().SetWorkload(w)
	e.Workers().ExecuteBatch(100, 4)
	if got := e.Workers().Executed(); got != 100 {
		t.Fatalf("executed = %d", got)
	}
	if got := h.Table().ReadActive(0, 1); got != 100 {
		t.Fatalf("counter = %d (lost updates)", got)
	}
	if e.Workers().Failed() != 0 {
		t.Fatalf("failed = %d", e.Workers().Failed())
	}
}

func TestExecuteBatchZeroAndNoWorkload(t *testing.T) {
	e := NewEngine()
	e.Workers().ExecuteBatch(10, 1) // no workload: must be a no-op
	if e.Workers().Executed() != 0 {
		t.Fatal("executed without workload")
	}
	h := e.CreateTable(testSchema(), 8, false)
	h.Table().AppendRows([][]int64{{0, 0}}, 0)
	e.Workers().SetWorkload(&counterWorkload{ref: h.Ref})
	e.Workers().ExecuteBatch(0, 1)
	if e.Workers().Executed() != 0 {
		t.Fatal("executed zero-sized batch")
	}
	// Zero workers falls back to one.
	e.Workers().ExecuteBatch(5, 0)
	if e.Workers().Executed() != 5 {
		t.Fatalf("executed = %d", e.Workers().Executed())
	}
}

// TestSetWorkloadDuringBatch: installing a workload while a batch runs is
// safe, and the batch keeps the workload it started with — it reads the
// workload once, under the pool's lock, and runs all its transactions from
// it. Run under -race.
func TestSetWorkloadDuringBatch(t *testing.T) {
	e := NewEngine()
	h := e.CreateTable(testSchema(), 8, false)
	h.Table().AppendRows([][]int64{{0, 0}}, 0)
	first, second := &counterWorkload{ref: h.Ref}, &counterWorkload{ref: h.Ref}
	e.Workers().SetWorkload(first)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first.calls.Load() == 0 {
			runtime.Gosched() // the batch has started
		}
		for i := 0; i < 200; i++ {
			e.Workers().SetWorkload(second)
		}
	}()
	e.Workers().ExecuteBatch(2000, 4)
	wg.Wait()
	if got := e.Workers().Executed(); got != 2000 {
		t.Fatalf("executed = %d", got)
	}
	if got := h.Table().ReadActive(0, 1); got != 2000 {
		t.Fatalf("counter = %d (lost updates)", got)
	}
	if a, b := first.calls.Load(), second.calls.Load(); a != 2000 || b != 0 {
		t.Fatalf("batch took %d bodies from its workload and %d from one installed after it started", a, b)
	}
}
