package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"elastichtap"
	"elastichtap/internal/ch"
	"elastichtap/internal/checkpoint"
	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/wal"
)

// The probes time single layers through their exported functions, on
// scratch structures or on the traced system once its schedule is done.
// They feed per-layer metrics only; nothing here is gated.

// probeColumnar appends, updates and twin-syncs a scratch copy of the
// orderline schema: the storage cost under a NewOrder insert, a Payment
// update and the switch-time sync, without locks or logging around it.
func probeColumnar(db *ch.DB, n int, m map[string]float64) {
	const batch = 10 // a NewOrder's order lines
	rows, updates := int64(n), n
	src := db.OrderLine.Table()
	t := columnar.NewTable(src.Schema(), rows)
	width := len(src.Schema().Columns)
	buf := make([][]int64, batch)
	for i := range buf {
		buf[i] = make([]int64, width)
		for c := range buf[i] {
			buf[i][c] = int64(i*width + c)
		}
	}
	t0 := time.Now()
	for r := int64(0); r < rows; r += batch {
		t.AppendRows(buf, 1)
	}
	m["columnar.append_ns_per_row"] = float64(time.Since(t0)) / float64(rows)

	rng := rand.New(rand.NewSource(1))
	t0 = time.Now()
	for i := 0; i < updates; i++ {
		t.BeginApply()
		t.UpdateCell(rng.Int63n(rows), ch.OLAmount, int64(i), 2)
		t.EndApply()
	}
	m["columnar.update_ns"] = float64(time.Since(t0)) / float64(updates)

	sw := t.Switch()
	t0 = time.Now()
	copied := t.SyncTo(sw.SnapshotIndex, func(int64) func() { return func() {} })
	m["columnar.sync_rows_per_ms"] = ratio(float64(copied), ms(time.Since(t0)))
}

// probeSort times the merge-side top-k that Q3 and Q18 end in: n grouped
// rows, keep 100, ordered by a float column descending.
func probeSort(n int, m map[string]float64) {
	const reps = 5
	rng := rand.New(rand.NewSource(2))
	base := make([][]float64, n)
	for i := range base {
		base[i] = []float64{float64(i % 14), float64(i % 10), float64(i), rng.Float64() * 5000}
	}
	var walls []float64
	for r := 0; r < reps; r++ {
		rows := append([][]float64(nil), base...)
		t0 := time.Now()
		olap.SortRows(rows, olap.Order{Col: 3, Desc: true}, 100)
		walls = append(walls, ms(time.Since(t0)))
	}
	m["olap.sort_ms"] = median(walls)
}

// probeQuery takes each statement of the workload apart the way the OLAP
// pool runs it — bind, stamp, build side, one Consume per chunk-aligned
// morsel, merge — on this goroutine alone, and checks the hand-driven
// result against the engine's on the same source.
func probeQuery(ctx context.Context, in *instance, m map[string]float64) (attempted, failed int, err error) {
	stamps := in.cfg.probeN / 100
	var bindNS, stampNS, hitNS, buildNS, kernelNS, mergeNS time.Duration
	var rows int64
	rng := rand.New(rand.NewSource(3))
	for _, name := range in.sp.classes {
		cl := classes[name]
		t0 := time.Now()
		c, err := cl.plan().Bind(in.db)
		bindNS += time.Since(t0)
		if err != nil {
			return attempted, failed, err
		}
		a0, _ := cl.gen(rng, in.db)
		a1, _ := cl.gen(rng, in.db)
		t0 = time.Now()
		for i := 0; i < stamps; i += 2 {
			if _, err := c.WithArgs(a0); err != nil {
				return attempted, failed, err
			}
			if _, err := c.WithArgs(a1); err != nil {
				return attempted, failed, err
			}
		}
		stampNS += time.Since(t0)
		t0 = time.Now()
		for i := 0; i < stamps; i++ {
			if _, err := c.WithArgs(a1); err != nil {
				return attempted, failed, err
			}
		}
		hitNS += time.Since(t0)

		q, err := c.WithArgs(a0)
		if err != nil {
			return attempted, failed, err
		}
		tab := in.db.Handle(q.FactTable()).Table()
		src := olap.Source{Table: tab, Parts: []olap.Part{{Data: tab.Active(), Lo: 0, Hi: tab.Rows(), Label: "probe"}}}
		t0 = time.Now()
		exec, _ := q.Prepare()
		buildNS += time.Since(t0)

		cols := q.Columns()
		var sc olap.Scratch
		var locals []olap.Local
		blk := olap.Block{Cols: make([][]int64, len(cols))}
		for lo := int64(0); lo < tab.Rows(); {
			hi := (lo/columnar.ChunkSize + 1) * columnar.ChunkSize
			if hi > tab.Rows() {
				hi = tab.Rows()
			}
			l := exec.NewLocal()
			blk.Base, blk.N = lo, int(hi-lo)
			for k, col := range cols {
				blk.Cols[k] = tab.Active().Col(col).Slice(lo, hi)
			}
			t0 = time.Now()
			if lc, ok := l.(olap.ScratchConsumer); ok {
				lc.ConsumeScratch(blk, &sc)
			} else {
				l.Consume(blk)
			}
			kernelNS += time.Since(t0)
			locals = append(locals, l)
			lo = hi
		}
		rows += tab.Rows()
		t0 = time.Now()
		got := exec.Merge(locals)
		mergeNS += time.Since(t0)

		want, _, err := in.sys.Core().OLAPE.ExecuteContext(ctx, q, src)
		attempted++
		if err != nil || !sameAnswer(got, want) {
			failed++
			fmt.Fprintf(os.Stderr, "VERIFY FAIL %s: hand-driven %s disagrees with the engine (err=%v)\n", in.sp.name, name, err)
		}
	}
	n := float64(len(in.sp.classes))
	m["query.prepare_us"] = us(bindNS) / n
	m["query.stamp_ns"] = float64(stampNS) / (n * float64(stamps))
	m["query.stamp_hit_ns"] = float64(hitNS) / (n * float64(stamps))
	m["query.build_ms"] = ms(buildNS) / n
	m["query.kernel_ns_per_row"] = ratio(float64(kernelNS), float64(rows))
	m["query.merge_us"] = us(mergeNS) / n
	return attempted, failed, nil
}

// probeLookups times point lookups in the secondary index (orders by
// carrier — the column Q3 narrows on) and the primary cuckoo index.
func probeLookups(db *ch.DB, n int, m map[string]float64) {
	rng := rand.New(rand.NewSource(4))
	db.Orders.Sec.CountEq(ch.OCarrierID, 0) // first demand builds the index
	var sink int64
	t0 := time.Now()
	for i := 0; i < n/10; i++ {
		c, _ := db.Orders.Sec.CountEq(ch.OCarrierID, int64(i%11))
		sink += c
	}
	m["index.lookup_ns"] = float64(time.Since(t0)) / float64(n/10)

	s := db.Sizing
	t0 = time.Now()
	for i := 0; i < n; i++ {
		row, _ := db.Stock.Index.Get(ch.StockKey(1+rng.Int63n(int64(s.Warehouses)), 1+rng.Int63n(int64(s.Items))))
		sink += int64(row)
	}
	m["cuckoo.lookup_ns"] = float64(time.Since(t0)) / float64(n)
	runtime.KeepAlive(sink)
}

var errEnough = errors.New("enough records")

// probeWAL reads the first records back from the run's own log,
// re-appends them to a scratch log under the run's sync policy, and scans
// the whole log with a no-op apply. Workloads without a log report zeros.
func probeWAL(in *instance, m map[string]float64) error {
	for _, k := range []string{"wal.append_us", "wal.replay_mb_per_s"} {
		m[k] = 0
	}
	l := in.sys.WAL()
	if l == nil {
		return nil
	}
	if err := l.Sync(); err != nil {
		return err
	}
	fs := elastichtap.DiskFS()
	name := in.dataDir + "/wal.log"
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	want := in.cfg.probeN / 10
	var recs []*wal.Record
	_, err = wal.Replay(f, 0, func(_ int64, rec *wal.Record) error {
		recs = append(recs, rec)
		if len(recs) == want {
			return errEnough
		}
		return nil
	})
	f.Close()
	if err != nil && !errors.Is(err, errEnough) {
		return err
	}
	scratch, err := wal.Open(fs, in.dataDir+"/probe.log", walPolicy, 0, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, rec := range recs {
		if _, err := scratch.Append(rec, nil); err != nil {
			scratch.Close()
			return err
		}
	}
	m["wal.append_us"] = ratio(us(time.Since(t0)), float64(len(recs)))
	if err := scratch.Close(); err != nil {
		return err
	}

	if f, err = fs.Open(name); err != nil {
		return err
	}
	t0 = time.Now()
	st, err := wal.Replay(f, 0, nil)
	f.Close()
	if err != nil {
		return err
	}
	m["wal.replay_mb_per_s"] = ratio(float64(st.ValidPos)/1e6, time.Since(t0).Seconds())
	return nil
}

// probeContention runs pairs of lock-step rounds on the finished system:
// one round with its transactions and its query apart (as the schedule
// runs them), one with a second goroutine committing the transactions
// while the query runs. It is the only place record latches, AcquireSync
// and the admission lock are contended, and the Go scheduler dividing two
// cores makes it too noisy to gate — the ratios are informational.
func probeContention(ctx context.Context, in *instance, m map[string]float64) (attempted, failed int, err error) {
	const pairs = 20
	txns := in.sp.txns
	if txns > 500 {
		txns = 500
	}
	mgr := in.sys.Core().OLTPE.Manager()
	rng := rand.New(rand.NewSource(5))
	warehouses := in.db.Sizing.Warehouses
	seq := 0
	// runTxns is only ever active on one goroutine at a time (the driver
	// in an apart round, the helper in a together round), so seq needs no
	// lock; failures are returned, not written to shared state.
	runTxns := func(lat *[]float64) (wall time.Duration, bad int) {
		t0 := time.Now()
		for i := 0; i < txns; i++ {
			body := in.mix.Next(seq % warehouses)
			seq++
			s := time.Now()
			_, err := mgr.RunWithRetry(1<<20, body)
			if lat != nil {
				*lat = append(*lat, us(time.Since(s)))
			}
			if err != nil {
				bad++
			}
		}
		return time.Since(t0), bad
	}
	runQuery := func(q olap.Query) (time.Duration, error) {
		t0 := time.Now()
		_, err := in.sys.QueryContext(ctx, q)
		return time.Since(t0), err
	}
	var txnApart, txnTogether, qApart, qTogether time.Duration
	var stalls []float64
	for p := 0; p < pairs; p++ {
		cl := classes[in.sp.classes[p%len(in.sp.classes)]]
		qargs, _ := cl.gen(rng, in.db)
		q, err := in.stmts[cl.name].WithArgs(qargs)
		if err != nil {
			return attempted, failed, err
		}
		attempted += 2*txns + 2
		wall, bad := runTxns(nil)
		txnApart += wall
		failed += bad
		d, err := runQuery(q)
		if err != nil {
			return attempted, failed + 1, err
		}
		qApart += d

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			wall, bad = runTxns(&stalls)
		}()
		d, err = runQuery(q)
		wg.Wait()
		txnTogether += wall
		failed += bad
		if err != nil {
			return attempted, failed + 1, err
		}
		qTogether += d
	}
	sort.Float64s(stalls)
	m["oltp.interfere_ratio"] = ratio(txnTogether.Seconds(), txnApart.Seconds())
	m["olap.interfere_ratio"] = ratio(qTogether.Seconds(), qApart.Seconds())
	m["txn.stall_p99_us"] = quantile(stalls, 0.99)
	return attempted, failed, nil
}

// dirBytes sums the regular files directly under dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

// probeDurability checkpoints the finished system, then takes recovery
// apart: the image restore (FileCRC + ReadInto per table) and the primary
// index rebuild are driven here on a scratch engine; the log suffix's cost
// is OpenFromDir with the log present minus OpenFromDir with it set aside,
// so it is exactly 0 for workloads that never logged. The system is gone
// when it returns.
func probeDurability(in *instance, m map[string]float64) error {
	fs := elastichtap.DiskFS()
	var rows int64
	for _, h := range in.db.Tables() {
		rows += h.Table().Rows()
	}
	sizing := in.db.Sizing
	dir := in.dataDir

	// The durable workload keeps its mid-run image so that a log suffix
	// remains to replay; its checkpoint write is timed into a side
	// directory instead.
	ckptDir := dir
	if in.sp.wal {
		ckptDir = dir + "/probe-ckpt"
	}
	settle()
	t0 := time.Now()
	seq, err := in.sys.CheckpointDB(fs, ckptDir)
	if err != nil {
		return err
	}
	writeS := time.Since(t0).Seconds()
	bytes := dirBytes(checkpoint.SeqDir(ckptDir, seq))
	m["checkpoint.write_s"] = writeS
	m["checkpoint.write_mb_per_s"] = ratio(float64(bytes)/1e6, writeS)
	m["checkpoint.bytes_per_row"] = ratio(float64(bytes), float64(rows))

	if err := in.shutdown(); err != nil {
		return err
	}

	// Restore and reindex, driven from here.
	seq, man, ok, err := checkpoint.Latest(fs, ckptDir)
	if err != nil || !ok {
		return fmt.Errorf("no checkpoint to restore under %s (err=%v)", ckptDir, err)
	}
	settle()
	scratch := ch.Attach(oltp.NewEngine(), sizing)
	var crcD, readD time.Duration
	var readBytes int64
	for _, te := range man.Tables {
		path := checkpoint.SeqDir(ckptDir, seq) + "/" + te.Name + ".ehcp"
		t0 = time.Now()
		if _, err := checkpoint.FileCRC(fs, path); err != nil {
			return err
		}
		crcD += time.Since(t0)
		f, err := fs.Open(path)
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = checkpoint.ReadInto(f, scratch.Handle(te.Name).Table())
		readD += time.Since(t0)
		f.Close()
		if err != nil {
			return err
		}
		if fi, err := os.Stat(path); err == nil {
			readBytes += fi.Size()
		}
	}
	t0 = time.Now()
	scratch.RebuildIndexes()
	m["recovery.reindex_s"] = time.Since(t0).Seconds()
	m["recovery.restore_s"] = (crcD + readD).Seconds()
	m["checkpoint.read_mb_per_s"] = ratio(float64(readBytes)/1e6, readD.Seconds())
	scratch = nil

	m["recovery.replay_s"], m["recovery.replayed_txns"] = 0, 0
	if in.sp.wal {
		open := func() (time.Duration, int, error) {
			settle()
			t0 := time.Now()
			sys, info, err := elastichtap.OpenFromDir(fs, dir, systemOptions()...)
			d := time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			sys.Close()
			return d, info.Replayed, nil
		}
		with, replayed, err := open()
		if err != nil {
			return err
		}
		if err := os.Rename(dir+"/wal.log", dir+"/wal.aside"); err != nil {
			return err
		}
		without, _, err := open()
		if err != nil {
			return err
		}
		if d := (with - without).Seconds(); d > 0 {
			m["recovery.replay_s"] = d
		}
		m["recovery.replayed_txns"] = float64(replayed)
	}
	return nil
}
