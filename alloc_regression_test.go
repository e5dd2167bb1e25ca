package elastichtap

import (
	"context"
	"runtime"
	"testing"

	"elastichtap/internal/ch"
	"elastichtap/internal/core"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/rde"
	"elastichtap/internal/topology"
	"elastichtap/internal/wal"
	"elastichtap/query"
)

// The fused kernels keep all per-morsel state in per-worker scratch and
// warmed locals, so steady-state execution must not allocate per row or
// per morsel. These tests pin that property with testing.AllocsPerRun
// (its built-in warmup run absorbs one-time group-state growth).

// fusedBlock builds one morsel-shaped block over the fact table's first
// rows for the compiled query's scan columns.
func fusedBlock(db *ch.DB, cols []int) (olap.Block, int64) {
	tab := db.OrderLine.Table()
	rows := tab.Rows()
	if rows > 16384 {
		rows = 16384 // stay inside one chunk, like an engine morsel
	}
	blk := olap.Block{N: int(rows), Cols: make([][]int64, len(cols))}
	inst := tab.Active()
	for k, c := range cols {
		blk.Cols[k] = inst.Col(c).Slice(0, rows)
	}
	return blk, rows
}

// TestFusedConsumeZeroAllocsPerMorsel drives a warmed fused local
// directly: consuming a morsel must be allocation-free for the ungrouped
// (Q6), dense-grouped (Q1) and join-grouped (Q18) kernels — a warmed
// join-grouped local has every accumulator block the morsel's orders
// resolve into.
func TestFusedConsumeZeroAllocsPerMorsel(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.TinySizing(), 1)
	for _, p := range []struct {
		name string
		args query.Args
	}{
		{"Q1", ch.Q1Args(0)},
		{"Q6", ch.Q6Args(0, 0, 0, 0)},
		{"Q18", ch.Q18Args(0)},
	} {
		t.Run(p.name, func(t *testing.T) {
			q := stamped(t, db, p.name, p.args)
			exec, _ := q.Prepare()
			local := exec.NewLocal()
			blk, _ := fusedBlock(db, q.Columns())
			if avg := testing.AllocsPerRun(20, func() { local.Consume(blk) }); avg != 0 {
				t.Fatalf("fused Consume allocates %.1f times per morsel, want 0", avg)
			}
		})
	}
}

// TestPreparedExecutionAllocBudget runs warmed prepared statements end to
// end through the pool and bounds the whole-execution allocation count:
// per-execution state (task bookkeeping, per-morsel locals, the merged
// result) is allowed, anything scaling with rows is not.
func TestPreparedExecutionAllocBudget(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.TinySizing(), 1)
	tab := db.OrderLine.Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "alloc",
	}}}
	eng := olap.NewEngine(1)
	eng.SetPlacement(topology.Placement{PerSocket: []int{2}})
	defer eng.Close()

	for _, p := range []struct {
		name   string
		args   query.Args
		budget float64
	}{
		// Measured 26/20 at tiny sizing, at GOMAXPROCS 2 and 8, with and
		// without -race.
		{"Q1", ch.Q1Args(0), 64},
		{"Q6", ch.Q6Args(0, 0, 0, 0), 64},
	} {
		t.Run(p.name, func(t *testing.T) {
			q := stamped(t, db, p.name, p.args)
			run := func() {
				if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(10, run)
			t.Logf("warmed prepared %s execution allocates %.1f objects, budget %.0f", p.name, avg, p.budget)
			if avg > p.budget {
				t.Fatalf("warmed prepared %s execution allocates %.1f, budget %.0f", p.name, avg, p.budget)
			}
		})
	}
}

// TestGraphJoinExecutionAllocBudget bounds warmed prepared executions of
// the graph-join queries Q2/Q5/Q7. Their dimensions pack densely, so a
// warmed statement holds every build table already and Prepare allocates
// nothing for them (BuildBytes still reports the logical broadcast the
// planner costs): what is left is the task, one local per morsel and the
// merge — Q7's share being its nation pairs' dense cells, one array per
// local (27 objects in all at tiny sizing; 60 while the pairs hashed into
// a group table per local). None of it grows with fact rows, so a budget
// miss means either the per-row kernel path started allocating or a build
// side stopped being reused.
func TestGraphJoinExecutionAllocBudget(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.TinySizing(), 1)
	eng := olap.NewEngine(1)
	eng.SetPlacement(topology.Placement{PerSocket: []int{2}})
	defer eng.Close()
	srcFor := func(table string) olap.Source {
		tab := db.Handle(table).Table()
		return olap.Source{Table: tab, Parts: []olap.Part{{
			Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "alloc",
		}}}
	}
	for _, p := range []struct {
		name   string
		fact   string
		args   query.Args
		joins  int64 // relations joined to the fact
		budget float64
	}{
		// Measured 30/28/27 at tiny sizing, at GOMAXPROCS 2 and 8, with and
		// without -race (34/32/31 while a dense plan's one-part merge went
		// through the fan, 46/47/535 before the vector loop and Q7's dense
		// cells, 51/56/543 when every execution rebuilt its tables). Each
		// budget is its measurement plus 25 %, rounded up: room for a Go
		// release whose runtime allocates a few objects differently (CI
		// also runs 1.23), none for an allocation per fact row (100 stock
		// and 1200 orderline rows at tiny sizing).
		{"Q2", ch.TStock, ch.Q2Args(0, 0), 3, 38},
		{"Q5", ch.TOrderLine, ch.Q5Args(0), 5, 35},
		{"Q7", ch.TOrderLine, ch.Q7Args(0), 4, 34},
	} {
		t.Run(p.name, func(t *testing.T) {
			q := stamped(t, db, p.name, p.args)
			src := srcFor(p.fact)
			run := func() {
				if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(10, run)
			t.Logf("warmed prepared %s execution allocates %.1f objects, budget %.0f", p.name, avg, p.budget)
			if avg > p.budget {
				t.Fatalf("warmed prepared %s execution allocates %.1f, budget %.0f", p.name, avg, p.budget)
			}
			if st := q.BuildStats(); st.Rebuilds != p.joins || st.Extends != 0 {
				t.Fatalf("%s built %+v: want each join built once, by the first execution", p.name, st)
			}
		})
	}
}

// TestNewLocalAllocBudget pins what one morsel's local costs to create,
// per plan shape. The engine creates every local of a task in one loop at
// Submit, so whatever a local allocates there sits next to its
// neighbours': accumulators only, never a buffer a worker writes per row
// (a multi-join plan's gathered payload words live on the consuming
// goroutine's stack). The flocal itself, and only that: a spill plan adds
// its group table and the table's slots, and no CH plan spills. Q7's key
// is two join payload words, which pack into dense cells, and Q3's and
// Q18's order keys address their orders join's build rows, in blocks from
// one arena through one directory; the local allocates those on its first
// consumed block, not here.
func TestNewLocalAllocBudget(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.TinySizing(), 1)
	for _, p := range []struct {
		name    string
		args    query.Args
		objects float64
	}{
		// One more each for Q2, Q5 and Q7 (2, 2, 4) when a multi-join local
		// carried its own payload buffer, Q7 took 3 while its nation pairs
		// hashed into a group table, and Q3 and Q18 took 3 while their
		// order keys did.
		{"Q1", ch.Q1Args(0), 1},
		{"Q6", ch.Q6Args(0, 0, 0, 0), 1},
		{"Q19", ch.Q19Args(0, 0, 0, 0), 1},
		{"Q12", ch.Q12Args(0), 1},
		{"Q3", ch.Q3Args(0), 1},
		{"Q18", ch.Q18Args(0), 1},
		{"Q2", ch.Q2Args(0, 0), 1},
		{"Q5", ch.Q5Args(0), 1},
		{"Q7", ch.Q7Args(0), 1},
	} {
		t.Run(p.name, func(t *testing.T) {
			q := stamped(t, db, p.name, p.args)
			exec, _ := q.Prepare()
			if got := testing.AllocsPerRun(20, func() { exec.NewLocal() }); got != p.objects {
				t.Fatalf("%s: NewLocal allocates %.0f objects, want %.0f", p.name, got, p.objects)
			}
		})
	}
}

// TestWALAppendAllocBudget pins the commit log's hot path: a warmed
// Append — encode buffer grown, file with capacity headroom — must not
// allocate per record beyond the filesystem's occasional slice growth
// (budget 1 absorbs an amortized doubling; the encode path itself is
// allocation-free, machine-checked by htaplint's hotalloc analyzer).
func TestWALAppendAllocBudget(t *testing.T) {
	fs := wal.NewMemFS()
	l, err := wal.Open(fs, "wal.log", wal.SyncNever, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &wal.Record{CommitTS: 2, Ops: []wal.Op{
		{Kind: wal.OpUpdate, Table: 6, Row: 3, Col: 4, Val: 5},
		{Kind: wal.OpInsert, Table: 6, NRows: 1, Width: 4, Vals: []int64{1, 2, 3, 4}},
	}}
	apply := func() {}
	// Warm: grows the encode buffer and gives the backing file capacity.
	for i := 0; i < 4096; i++ {
		if _, err := l.Append(rec, apply); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(rec, apply); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("warmed WAL append allocates %.2f times per record, budget 1", avg)
	}
}

// TestTxnAllocBudget pins what one CH transaction allocates, workload body
// included, on one client with no WAL. RunWithRetry recycles one Txn (lock
// set, write set, insert arena, pre-image buffer); a pre-image push reuses
// the version it trims; a record lock is a word in a block that its
// first lock allocated, during the warm-up. What is
// left is the body's own closures — one for Payment, two for NewOrder (the
// body and the order's index callback) — and, for NewOrder, the column
// chunks its ~12 inserted rows grow into. A buffer that stops being reused,
// a map or a boxed row creeping back into the write path shows here before
// it shows in the benchmark.
func TestTxnAllocBudget(t *testing.T) {
	for _, p := range []struct {
		name          string
		paymentPct    int
		bytes, allocs float64 // per transaction, measured + 25 %
		raceBytes     float64 // same under -race, where the pool is lossy
		raceAllocs    float64
	}{
		// Measured 1785 B / 2.0 and 64 B / 1.0 (3148 B / 7.2 and 353 B / 4.4
		// under -race); 7903 B / 106.3 and 1537 B / 26.0 when every record
		// lock allocated its pre-image, version, lock state and condition
		// variable and every inserted row was boxed through EncodeRow.
		{"NewOrder", 0, 2250, 2.5, 3950, 9},
		{"Payment", 100, 80, 1.25, 450, 5.5},
	} {
		t.Run(p.name, func(t *testing.T) {
			maxBytes, maxAllocs := p.bytes, p.allocs
			if raceEnabled {
				maxBytes, maxAllocs = p.raceBytes, p.raceAllocs
			}
			e := oltp.NewEngine()
			db := ch.Load(e, ch.TinySizing(), 1)
			mix := ch.NewMix(db, p.paymentPct, 1)
			run := func(n int) {
				for i := 0; i < n; i++ {
					if _, err := e.Manager().RunWithRetry(0, mix.Next(0)); err != nil {
						t.Fatal(err)
					}
				}
			}
			run(2000) // every updated row has its chain, columns have grown
			const n = 4000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(n)
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
			allocs := float64(after.Mallocs-before.Mallocs) / n
			if bytes > maxBytes || allocs > maxAllocs {
				t.Fatalf("%s allocates %.0f B and %.1f objects per transaction, budget %.0f B and %.1f",
					p.name, bytes, allocs, maxBytes, maxAllocs)
			}
		})
	}
}

// TestAdmitAllocBudget pins what the exchange allocates to admit one query
// — the table list, SwitchAndSync, MeasureFreshness, ETL over all twelve
// tables — over a stale population of inserted and updated rows, so nothing
// scales with rows: the snapshot set and its one slice of snapshots. The
// catalog hands out its own slice of handles, freshness is a popcount, the
// per-table closures stay on the stack and a synced row costs a copy. A
// per-switch map, a snapshot allocated per table, a copied table list or a
// closure per row shows here.
func TestAdmitAllocBudget(t *testing.T) {
	f := newAdmitFixture(t, ch.TinySizing(), 64, 40)
	f.populate()
	f.admit(t) // replica columns sized
	const n = 50
	var allocs uint64
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		f.populate()
		runtime.ReadMemStats(&before)
		f.tables = f.sys.OLTPE.Tables()
		f.admit(t)
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	// Measured 2.0, with and without -race (18.0 with a map of twelve
	// snapshot pointers per switch and a copied table list).
	if got := float64(allocs) / n; got > 2.5 {
		t.Fatalf("admission allocates %.1f objects per query, budget 2.5", got)
	}
}

// TestSteadyStateMigrateZeroAllocs pins the scheduler's share of a query
// that stays in the state the last one left: decide, re-enter the state
// (both pools see the placement they already have) and read the cut the
// cost model charges allocate nothing — the published placements are kept,
// not recounted. Migrating away and back is what allocates (one slice per
// engine).
func TestSteadyStateMigrateZeroAllocs(t *testing.T) {
	sys, err := core.NewSystem(core.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	fresh := rde.Freshness{Nfq: 10, Nft: 1000}
	sys.Sched.MigrateTo(sys.Sched.Decide(fresh, false))
	var cores int
	if got := testing.AllocsPerRun(200, func() {
		sys.Sched.MigrateTo(sys.Sched.Decide(fresh, false))
		_, oltpP, olapP := sys.Sched.Placements()
		cores = oltpP.Total() + olapP.Total()
	}); got != 0 {
		t.Fatalf("re-entering a state allocates %.1f objects, want 0", got)
	}
	if st := sys.Sched.State(); st != core.S3NI || cores != 28 {
		t.Fatalf("steady state %v with %d cores, want S3-NI with 28", st, cores)
	}
}

// TestGroupedMergeAllocBudget bounds a warmed Q18 execution at SF 0.01:
// some 4 000 orders, each its own group. The merge folds the locals'
// accumulator blocks a block at a time, applies Having as it renders the
// groups and emits only the top 100, so what it allocates does not grow
// with the group count. Measured 69 (188 while the groups hashed into a
// table per local and per merge part; 4 106 when every group emitted a
// row before Having and the top-k ran).
func TestGroupedMergeAllocBudget(t *testing.T) {
	e := oltp.NewEngine()
	db := ch.Load(e, ch.SizingForScale(0.01), 1)
	tab := db.OrderLine.Table()
	src := olap.Source{Table: tab, Parts: []olap.Part{{
		Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Socket: 0, Label: "alloc",
	}}}
	eng := olap.NewEngine(1)
	eng.SetPlacement(topology.Placement{PerSocket: []int{2}})
	defer eng.Close()
	q := stamped(t, db, "Q18", ch.Q18Args(0))
	run := func() {
		if _, _, err := eng.ExecuteContext(context.Background(), q, src); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 512
	if avg := testing.AllocsPerRun(10, run); avg > budget {
		t.Fatalf("warmed Q18 execution allocates %.1f, budget %d", avg, budget)
	}
}

// TestLoadAllocBudget bounds what ch.Load allocates at SF 0.01: the
// generators write typed words into per-table column batches that
// AppendColumns copies into the chunks, and each dist-info and item-data
// string is formatted once per column, so what is left is the chunks, the
// dictionaries, the indexes and the strings that are unique per row (item
// and table names). Measured 10 716 (473 k when every row was boxed
// through EncodeRow and every dist-info string formatted per row).
func TestLoadAllocBudget(t *testing.T) {
	sizing := ch.SizingForScale(0.01)
	const budget = 25_000
	if avg := testing.AllocsPerRun(2, func() { ch.Load(oltp.NewEngine(), sizing, 1) }); avg > budget {
		t.Fatalf("ch.Load at SF 0.01 allocates %.0f objects, budget %d", avg, budget)
	}
}
