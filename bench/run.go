package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"elastichtap"
	"elastichtap/internal/ch"
	"elastichtap/internal/core"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/rde"
	"elastichtap/query"
)

// config is one benchmark invocation's sizing. Only sf, seed, seconds and
// dir are reachable from the command line; the rest exist so the smoke
// test can run a six-round schedule on a tiny database.
type config struct {
	sf      float64
	seed    int64
	seconds int
	dir     string // scratch root: durability data and trace files
	// rounds overrides the schedule length derived from seconds (0 = derive).
	rounds int
	// verifyEvery re-runs every n-th round's query through its oracle.
	verifyEvery int
	// setups and recoveries are how many times the one-shot regions are
	// repeated; the median is reported.
	setups, recoveries int
	// probeN sizes the per-layer probes' loops (rows, lookups, records).
	probeN int
}

func defaultConfig() config {
	return config{sf: 0.1, seed: 42, seconds: 10, dir: ".bench_build", verifyEvery: 20, setups: 3, recoveries: 3, probeN: 200_000}
}

func (c config) roundsFor(sp spec) int {
	if c.rounds > 0 {
		return c.rounds
	}
	n := int(math.Round(sp.roundsPerSec * float64(c.seconds)))
	// Every class needs a few samples for its median, and the mid-run
	// checkpoint needs rounds on both sides of it.
	if min := 4 * len(sp.classes); n < min {
		n = min
	}
	return n
}

// systemOptions sizes the engine pools so that, with the single driver
// goroutine blocked inside QueryContext, at most two threads are ever
// runnable on the two-core sandbox (design rule 2).
func systemOptions() []elastichtap.Option {
	return []elastichtap.Option{
		elastichtap.WithTopology(2, 1),
		elastichtap.WithElasticCores(1),
		elastichtap.WithAlpha(0.6),
	}
}

// walPolicy is the commit log's sync policy on every run: appends reach
// the page cache and are fsynced only by Sync and Close. The durability
// directory must live inside the checkout, on whatever disk that is; an
// interval policy put that virtual disk's fsync latency (270 us median,
// 1.3 ms worst on the reference sandbox) into every 150th commit and made
// txn_per_s and txn_p99_us follow the hypervisor instead of the log code.
const walPolicy = elastichtap.SyncNever

// instance is one set-up system under test.
type instance struct {
	sp      spec
	cfg     config
	sys     *elastichtap.System
	db      *ch.DB
	mix     *ch.Mix
	stmts   map[string]*query.Compiled
	dataDir string
}

// settle collects the garbage of whatever ran before a one-shot timed
// region, so the region does not pay a predecessor's mark phase (design
// rule 4).
func settle() { runtime.GC() }

// setup builds one system: New, LoadCH, bind every statement of the
// workload, and for the durable workload EnableWAL plus the bootstrap
// CheckpointDB. It returns the wall time of exactly that.
func setup(sp spec, cfg config, dataDir string) (*instance, time.Duration, error) {
	settle()
	t0 := time.Now()
	sys, err := elastichtap.New(systemOptions()...)
	if err != nil {
		return nil, 0, err
	}
	in := &instance{sp: sp, cfg: cfg, sys: sys, dataDir: dataDir}
	in.db = sys.LoadCH(cfg.sf, cfg.seed)
	if in.stmts, err = bindAll(sp, in.db); err != nil {
		sys.Close()
		return nil, 0, err
	}
	in.mix = ch.NewMix(in.db, sp.paymentPct, cfg.seed)
	if sp.wal {
		fs := elastichtap.DiskFS()
		if err := sys.EnableWAL(fs, dataDir, walPolicy, 0); err != nil {
			sys.Close()
			return nil, 0, err
		}
		if _, err := sys.CheckpointDB(fs, dataDir); err != nil {
			sys.Close()
			return nil, 0, err
		}
	}
	return in, time.Since(t0), nil
}

// bindAll binds every statement of the workload against a database.
func bindAll(sp spec, db *ch.DB) (map[string]*query.Compiled, error) {
	stmts := map[string]*query.Compiled{}
	for _, name := range sp.classes {
		c, err := classes[name].plan().Bind(db)
		if err != nil {
			return nil, fmt.Errorf("bind %s: %w", name, err)
		}
		stmts[name] = c
	}
	return stmts, nil
}

// shutdown syncs and closes the log, stops the pools and drops every
// reference to the system, so the next collection frees it. The
// durability directory stays.
func (in *instance) shutdown() error {
	if in.sys == nil {
		return nil
	}
	var err error
	if l := in.sys.WAL(); l != nil {
		err = l.Close()
	}
	in.sys.Close()
	in.sys, in.db, in.mix, in.stmts = nil, nil, nil, nil
	return err
}

// close releases the system and removes its durability directory.
func (in *instance) close() {
	in.shutdown() // the directory is discarded: a failed log flush changes nothing
	os.RemoveAll(in.dataDir)
}

// outcome is what one query execution reports, from whichever driver ran it.
type outcome struct {
	state   core.State
	method  rde.AccessMethod
	result  olap.Result
	stats   olap.Stats
	etl     int64
	modeled float64
}

// executor runs the schedule's operations against the system: the facade
// driver for every end-to-end number, the traced walker (trace.go) for the
// per-layer pass.
type executor interface {
	txn(body oltp.TxnFunc) (retries int, err error)
	query(ctx context.Context, q olap.Query) (outcome, error)
	// beginTxns / endTxns bracket a round's transaction phase.
	beginTxns(round int)
	endTxns(n int)
}

// facadeExec drives the public surface: RunWithRetry and QueryContext.
type facadeExec struct{ sys *elastichtap.System }

func (f facadeExec) beginTxns(int) {}
func (f facadeExec) endTxns(int)   {}

func (f facadeExec) txn(body oltp.TxnFunc) (int, error) {
	return f.sys.Core().OLTPE.Manager().RunWithRetry(1<<20, body)
}

func (f facadeExec) query(ctx context.Context, q olap.Query) (outcome, error) {
	rep, err := f.sys.QueryContext(ctx, q)
	return outcome{
		state: rep.State, method: rep.Method, result: rep.Result, stats: rep.Stats,
		etl: rep.ETLBytes, modeled: rep.ResponseSeconds,
	}, err
}

// roundRec is one round's query as the schedule saw it. The traced pass
// must reproduce state, method and checksum exactly.
type roundRec struct {
	class    string
	state    string
	method   string
	checksum uint64
	wall     time.Duration
}

// passResult is everything one run of the schedule measured.
type passResult struct {
	rounds    []roundRec
	txnNS     []uint32 // per-transaction latency, nanoseconds
	txnPhase  time.Duration
	attempted int
	failed    int // every failed operation, failedTxn included
	failedTxn int
	retries   int

	modeled                          float64
	buildBytes, etlBytes             int64
	morsels, stolen, workers         int64
	s2                               int
	heapPeak                         uint64
	mallocBytesTxn, mallocBytesQuery uint64
	gcCycles                         uint32
	gcPause                          time.Duration
}

// checksum folds a result's column names and the bit patterns of its
// values, so two executions agree only if they are bitwise identical.
func checksum(r olap.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range r.Cols {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	for _, row := range r.Rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}

func sameAnswer(a, b olap.Result) bool {
	return reflect.DeepEqual(a.Cols, b.Cols) && reflect.DeepEqual(a.Rows, b.Rows)
}

// runSchedule executes rounds [0, n) of the workload's seeded schedule:
// per round, sp.txns transactions on this goroutine (each timed), then one
// query (timed), blocking until it returns — a closed loop with one
// client. Every verifyEvery-th round the query is re-run, untimed, through
// its hand-coded oracle pinned to the same state, which reads the same
// memory areas in the same morsel order and so must agree bit for bit.
func (in *instance) runSchedule(ctx context.Context, ex executor, n int) (*passResult, error) {
	sp, db := in.sp, in.db
	args := rand.New(rand.NewSource(in.cfg.seed*7919 + 17))
	res := &passResult{
		rounds: make([]roundRec, 0, n),
		txnNS:  make([]uint32, 0, n*sp.txns),
	}
	warehouses := db.Sizing.Warehouses
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, pause0 := m0.NumGC, m0.PauseTotalNs
	seq := 0
	for r := 0; r < n; r++ {
		runtime.ReadMemStats(&m0)
		ex.beginTxns(r)
		phase := time.Now()
		for i := 0; i < sp.txns; i++ {
			body := in.mix.Next(seq % warehouses)
			seq++
			t0 := time.Now()
			retries, err := ex.txn(body)
			res.txnNS = append(res.txnNS, uint32(time.Since(t0)))
			res.retries += retries
			res.attempted++
			if err != nil {
				res.failed++
				res.failedTxn++
			}
		}
		res.txnPhase += time.Since(phase)
		ex.endTxns(sp.txns)
		runtime.ReadMemStats(&m1)
		res.mallocBytesTxn += m1.TotalAlloc - m0.TotalAlloc

		cl := classes[sp.classes[r%len(sp.classes)]]
		qargs, oracle := cl.gen(args, db)
		t0 := time.Now()
		q, err := in.stmts[cl.name].WithArgs(qargs)
		var out outcome
		if err == nil {
			out, err = ex.query(ctx, q)
		}
		wall := time.Since(t0)
		res.attempted++
		if err != nil {
			res.failed++
			return res, fmt.Errorf("round %d %s: %w", r, cl.name, err)
		}
		runtime.ReadMemStats(&m0)
		res.mallocBytesQuery += m0.TotalAlloc - m1.TotalAlloc
		if m0.HeapAlloc > res.heapPeak {
			res.heapPeak = m0.HeapAlloc
		}
		res.rounds = append(res.rounds, roundRec{
			class: cl.name, state: out.state.String(), method: out.method.String(),
			checksum: checksum(out.result), wall: wall,
		})
		res.modeled += out.modeled
		res.buildBytes += out.stats.BuildBytes
		res.morsels += int64(out.stats.Morsels)
		res.stolen += out.stats.StolenMorsels
		res.workers += int64(out.stats.Workers)
		res.etlBytes += out.etl
		if out.state == core.S2 {
			res.s2++
		}

		if in.cfg.verifyEvery > 0 && (r+1)%in.cfg.verifyEvery == 0 {
			res.attempted++
			want, err := in.sys.QueryInStateContext(ctx, oracle, out.state)
			if err != nil || !sameAnswer(out.result, want.Result) {
				res.failed++
				fmt.Fprintf(os.Stderr, "VERIFY FAIL %s round %d %s: oracle disagrees (err=%v)\n", sp.name, r, cl.name, err)
			}
		}
		if sp.wal && r+1 == n/2 {
			if _, err := in.sys.CheckpointDB(elastichtap.DiskFS(), in.dataDir); err != nil {
				return res, fmt.Errorf("mid-run checkpoint: %w", err)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	res.gcCycles = m1.NumGC - gc0
	res.gcPause = time.Duration(m1.PauseTotalNs - pause0)
	return res, nil
}

// queryStats reduces the per-round walls to the query metrics. The two
// medians are taken per class first: a percentile over the mixed sample
// sits on the boundary between a fast and a slow class (or on the few
// ETL-paying rounds) and jumps between identical runs, a class's own
// median does not. typical is the median over classes of those medians,
// slowest their maximum; p90 over the mixed sample is informational.
func (p *passResult) queryStats() (typical, meanMS, slowest, p90 float64) {
	var all []float64
	byClass := map[string][]float64{}
	for _, r := range p.rounds {
		w := ms(r.wall)
		all = append(all, w)
		byClass[r.class] = append(byClass[r.class], w)
	}
	var medians []float64
	for _, ws := range byClass {
		medians = append(medians, median(ws))
	}
	sort.Float64s(medians)
	if len(medians) > 0 {
		slowest = medians[len(medians)-1]
	}
	return quantile(medians, 0.5), mean(all), slowest, quantile(sortedCopy(all), 0.9)
}

func (p *passResult) txnStats() (perSec, p50us, p99us float64) {
	lat := make([]float64, len(p.txnNS))
	for i, ns := range p.txnNS {
		lat[i] = float64(ns) / 1e3
	}
	sort.Float64s(lat)
	committed := float64(len(p.txnNS) - p.failedTxn)
	return ratio(committed, p.txnPhase.Seconds()), quantile(lat, 0.5), quantile(lat, 0.99)
}

// liveBytesPerRow is the heap that survives a collection, per user row:
// twin instances, OLAP replica, primary and secondary indexes, version
// chains — everything the engine keeps for the data it holds.
func (in *instance) liveBytesPerRow() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var rows int64
	for _, h := range in.db.Tables() {
		rows += h.Table().Rows()
	}
	return ratio(float64(m.HeapAlloc), float64(rows))
}

// answers runs every class of the workload once with fixed arguments,
// pinned to S1 so the scan is one contiguous area in a fixed morsel order:
// the same call on a recovered system must return the same bits.
func answers(ctx context.Context, sys *elastichtap.System, sp spec, stmts map[string]*query.Compiled) (map[string]olap.Result, error) {
	out := map[string]olap.Result{}
	rng := rand.New(rand.NewSource(1))
	for _, name := range sp.classes {
		qargs, _ := classes[name].gen(rng, sys.DB())
		q, err := stmts[name].WithArgs(qargs)
		if err != nil {
			return nil, err
		}
		rep, err := sys.QueryInStateContext(ctx, q, elastichtap.S1)
		if err != nil {
			return nil, err
		}
		out[name] = rep.Result
	}
	return out, nil
}

// recovered is one timed OpenFromDir plus its verification.
type recovered struct {
	wall      time.Duration
	replayed  int
	attempted int
	failed    int
}

// crashAndRecover ends the run the way a crash would: the non-durable
// workloads checkpoint once now (untimed), the durable one relies on its
// mid-run image plus the log; the log is synced and closed, every
// reference to the system is dropped and collected, and OpenFromDir is
// timed cfg.recoveries times (it is read-only). Each recovered system must
// report the live commit count and answer every workload query exactly as
// the pre-crash system did.
func (in *instance) crashAndRecover(ctx context.Context) ([]recovered, error) {
	fs := elastichtap.DiskFS()
	want, err := answers(ctx, in.sys, in.sp, in.stmts)
	if err != nil {
		return nil, fmt.Errorf("pre-crash answers: %w", err)
	}
	if !in.sp.wal {
		if _, err := in.sys.CheckpointDB(fs, in.dataDir); err != nil {
			return nil, err
		}
	}
	commits := in.sys.Core().OLTPE.Manager().Commits()
	sp, dir := in.sp, in.dataDir
	if err := in.shutdown(); err != nil {
		return nil, fmt.Errorf("closing log: %w", err)
	}

	var out []recovered
	for i := 0; i < in.cfg.recoveries; i++ {
		settle()
		t0 := time.Now()
		sys, info, err := elastichtap.OpenFromDir(fs, dir, systemOptions()...)
		if err != nil {
			return out, fmt.Errorf("recovery %d: %w", i, err)
		}
		rec := recovered{wall: time.Since(t0), replayed: info.Replayed}
		rec.attempted++
		if info.Commits != commits {
			rec.failed++
			fmt.Fprintf(os.Stderr, "VERIFY FAIL %s: recovered %d commits, live system had %d\n", sp.name, info.Commits, commits)
		}
		stmts, err := bindAll(sp, sys.DB())
		var got map[string]olap.Result
		if err == nil {
			got, err = answers(ctx, sys, sp, stmts)
		}
		sys.Close()
		if err != nil {
			return out, fmt.Errorf("post-recovery answers: %w", err)
		}
		for _, name := range sp.classes {
			rec.attempted++
			if !sameAnswer(want[name], got[name]) {
				rec.failed++
				fmt.Fprintf(os.Stderr, "VERIFY FAIL %s: %s differs after recovery\n", sp.name, name)
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// runResult is one workload's outcome in either mode.
type runResult struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
	// rounds is kept for the smoke test's determinism checks.
	rounds []roundRec
}

func (r *runResult) correct() bool { return r.failed == 0 }

// dataDirFor names a fresh durability directory under the scratch root.
func dataDirFor(cfg config, sp spec, n int) string {
	return fmt.Sprintf("%s/data/%s-%d-%d", cfg.dir, sp.name, os.Getpid(), n)
}

// runEndToEnd is the untraced pass: set up cfg.setups times (keeping the
// last system), run the whole schedule through the facade, then crash and
// recover. It reports the nine end-to-end metrics.
func runEndToEnd(ctx context.Context, sp spec, cfg config) (*runResult, error) {
	var in *instance
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			in.close()
			in = nil
		}
		next, d, err := setup(sp, cfg, dataDirFor(cfg, sp, i))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		in = next
		setups = append(setups, d.Seconds())
	}
	defer func() { in.close() }()

	settle()
	t0 := time.Now()
	pass, err := in.runSchedule(ctx, facadeExec{in.sys}, cfg.roundsFor(sp))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d rounds, schedule took %.2f s (transactions %.2f s)\n",
		sp.name, len(pass.rounds), time.Since(t0).Seconds(), pass.txnPhase.Seconds())
	res := &runResult{workload: sp.name, attempted: pass.attempted, failed: pass.failed, rounds: pass.rounds}
	live := in.liveBytesPerRow()
	recs, err := in.crashAndRecover(ctx)
	if err != nil {
		return nil, err
	}
	var recWalls []float64
	for _, r := range recs {
		recWalls = append(recWalls, r.wall.Seconds())
		res.attempted += r.attempted
		res.failed += r.failed
	}
	p50, meanMS, slowest, _ := pass.queryStats()
	tps, t50, t99 := pass.txnStats()
	res.metrics = map[string]float64{
		"setup_s":              median(setups),
		"query_p50_ms":         p50,
		"query_mean_ms":        meanMS,
		"query_slowest_p50_ms": slowest,
		"txn_per_s":            tps,
		"txn_p50_us":           t50,
		"txn_p99_us":           t99,
		"live_b_per_row":       live,
		"recovery_s":           median(recWalls),
	}
	return res, nil
}
