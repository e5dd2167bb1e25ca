package main

import (
	"context"
	"fmt"
	"os"
)

// perLayer lists every per-layer metric, in the order BENCHMARK.json
// declares them. Layers are this repository's packages; `self.*` are each
// layer's share of the traced pass's self time.
var perLayer = []metricDef{
	{name: "core.admit_ms", unit: "ms"}, {name: "core.s2_frac", unit: "ratio"}, {name: "core.migrate_us", unit: "us"},
	{name: "core.model_wall_ratio", unit: "ratio"}, {name: "core.query_p90_ms", unit: "ms"},
	{name: "workload.admit_us", unit: "us"},
	{name: "rde.switch_sync_ms", unit: "ms"}, {name: "rde.synced_rows_per_q", unit: "count"}, {name: "rde.freshness_us", unit: "us"},
	{name: "rde.etl_ms", unit: "ms"}, {name: "rde.etl_bytes_per_q", unit: "B"}, {name: "rde.etl_mb_per_s", unit: "MB/s"}, {name: "rde.source_us", unit: "us"},
	{name: "columnar.append_ns_per_row", unit: "ns"}, {name: "columnar.update_ns", unit: "ns"}, {name: "columnar.sync_rows_per_ms", unit: "1/ms"},
	{name: "olap.exec_ms", unit: "ms"}, {name: "olap.scan_mb_per_s", unit: "MB/s"}, {name: "olap.morsels_per_q", unit: "count"},
	{name: "olap.stolen_frac", unit: "ratio"}, {name: "olap.workers_mean", unit: "count"}, {name: "olap.sort_ms", unit: "ms"},
	{name: "query.prepare_us", unit: "us"}, {name: "query.stamp_ns", unit: "ns"}, {name: "query.stamp_hit_ns", unit: "ns"}, {name: "query.build_ms", unit: "ms"},
	{name: "query.kernel_ns_per_row", unit: "ns"}, {name: "query.merge_us", unit: "us"}, {name: "query.build_bytes_per_q", unit: "B"},
	{name: "index.refresh_ms", unit: "ms"}, {name: "index.lookup_ns", unit: "ns"},
	{name: "txn.body_us", unit: "us"}, {name: "txn.commit_us", unit: "us"}, {name: "txn.retries_per_ktxn", unit: "count"}, {name: "cuckoo.lookup_ns", unit: "ns"},
	{name: "wal.append_us", unit: "us"}, {name: "wal.bytes_per_txn", unit: "B"}, {name: "wal.group_size", unit: "count"},
	{name: "wal.sync_count", unit: "count"}, {name: "wal.replay_mb_per_s", unit: "MB/s"},
	{name: "checkpoint.write_s", unit: "s"}, {name: "checkpoint.write_mb_per_s", unit: "MB/s"},
	{name: "checkpoint.bytes_per_row", unit: "B"}, {name: "checkpoint.read_mb_per_s", unit: "MB/s"},
	{name: "recovery.restore_s", unit: "s"}, {name: "recovery.reindex_s", unit: "s"}, {name: "recovery.replay_s", unit: "s"}, {name: "recovery.replayed_txns", unit: "count"},
	{name: "go.alloc_b_per_txn", unit: "B"}, {name: "go.alloc_b_per_query", unit: "B"}, {name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_ms", unit: "ms"}, {name: "go.heap_peak_mb", unit: "MB"},
	{name: "oltp.interfere_ratio", unit: "ratio"}, {name: "olap.interfere_ratio", unit: "ratio"}, {name: "txn.stall_p99_us", unit: "us"},
	{name: "trace.overhead_frac", unit: "ratio"},
	{name: "self.core_frac", unit: "ratio"}, {name: "self.workload_frac", unit: "ratio"}, {name: "self.rde_frac", unit: "ratio"},
	{name: "self.index_frac", unit: "ratio"}, {name: "self.olap_query_frac", unit: "ratio"}, {name: "self.txn_frac", unit: "ratio"},
}

// tracedRounds is the part of the schedule the traced run repeats: its
// first quarter, but never fewer than two rounds per query class.
func tracedRounds(sp spec, cfg config) int {
	n := cfg.roundsFor(sp) / 4
	if min := 2 * len(sp.classes); n < min {
		n = min
	}
	return n
}

// runTraced produces the per-layer metrics. It runs the first quarter of
// the schedule twice on two freshly set-up systems: once through the
// facade (counters from public outputs, and the reference the traced pass
// is held to), once through tracedExec (spans). The two must agree on
// every round's state, access method and result bits. The probes and the
// recovery break-down then run on the traced system.
func runTraced(ctx context.Context, sp spec, cfg config) (*runResult, error) {
	n := tracedRounds(sp, cfg)
	m := map[string]float64{}
	res := &runResult{workload: sp.name, metrics: m}

	// A discarded set-up first: the facade pass would otherwise run on a
	// heap the process is still faulting in and the traced pass on a warm
	// one, which reads as negative tracing overhead.
	warm, _, err := setup(sp, cfg, dataDirFor(cfg, sp, 2))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	warm.close()
	ref, _, err := setup(sp, cfg, dataDirFor(cfg, sp, 0))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	_, synced0, _ := ref.sys.Core().X.Counters()
	settle()
	plain, err := ref.runSchedule(ctx, facadeExec{ref.sys}, n)
	if err != nil {
		ref.close()
		return nil, err
	}
	_, synced1, _ := ref.sys.Core().X.Counters()
	queries := float64(len(plain.rounds))
	txns := float64(len(plain.txnNS))
	_, plainMean, _, p90 := plain.queryStats()
	m["core.s2_frac"] = float64(plain.s2) / queries
	m["core.query_p90_ms"] = p90
	m["core.model_wall_ratio"] = ratio(plain.modeled*1e3, plainMean*queries)
	m["rde.synced_rows_per_q"] = float64(synced1-synced0) / queries
	m["rde.etl_bytes_per_q"] = float64(plain.etlBytes) / queries
	m["olap.morsels_per_q"] = float64(plain.morsels) / queries
	m["olap.stolen_frac"] = ratio(float64(plain.stolen), float64(plain.morsels))
	m["olap.workers_mean"] = float64(plain.workers) / queries
	m["query.build_bytes_per_q"] = float64(plain.buildBytes) / queries
	m["txn.retries_per_ktxn"] = ratio(float64(plain.retries)*1e3, txns)
	m["go.alloc_b_per_txn"] = float64(plain.mallocBytesTxn) / txns
	m["go.alloc_b_per_query"] = float64(plain.mallocBytesQuery) / queries
	m["go.gc_cycles"] = float64(plain.gcCycles)
	m["go.gc_pause_ms"] = ms(plain.gcPause)
	m["go.heap_peak_mb"] = float64(plain.heapPeak) / 1e6
	m["wal.bytes_per_txn"], m["wal.group_size"], m["wal.sync_count"] = 0, 0, 0
	if l := ref.sys.WAL(); l != nil {
		appends, syncs, _ := l.Stats()
		m["wal.bytes_per_txn"] = ratio(float64(l.Pos()), float64(appends))
		m["wal.group_size"] = ratio(float64(appends), float64(syncs))
		m["wal.sync_count"] = float64(syncs)
	}
	res.attempted, res.failed = plain.attempted, plain.failed
	ref.close()

	in, _, err := setup(sp, cfg, dataDirFor(cfg, sp, 1))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { in.close() }()
	tr := newTracer()
	settle()
	traced, err := in.runSchedule(ctx, &tracedExec{sys: in.sys.Core(), tr: tr}, n)
	if err != nil {
		return nil, err
	}
	res.attempted += traced.attempted
	res.failed += traced.failed
	res.rounds = traced.rounds
	for i, want := range plain.rounds {
		got := traced.rounds[i]
		res.attempted++
		if got.class != want.class || got.state != want.state || got.method != want.method || got.checksum != want.checksum {
			res.failed++
			fmt.Fprintf(os.Stderr, "VERIFY FAIL %s round %d: traced %s/%s/%s/%x, facade %s/%s/%s/%x\n", sp.name, i,
				got.class, got.state, got.method, got.checksum, want.class, want.state, want.method, want.checksum)
		}
	}

	// perQuery is a span's total time divided by the traced queries, so
	// the query-path metrics add up to the traced mean.
	perQuery := func(name string) float64 {
		ns, _ := tr.total(name, "")
		return float64(ns) / queries
	}
	// Round by round, so a slow round weighs the same in both passes.
	var slowdown []float64
	for i, r := range traced.rounds {
		slowdown = append(slowdown, ratio(float64(r.wall), float64(plain.rounds[i].wall)))
	}
	m["trace.overhead_frac"] = median(slowdown) - 1
	m["core.admit_ms"] = float64(tr.admitNS()) / queries / 1e6
	m["core.migrate_us"] = perQuery("core.migrate") / 1e3
	m["workload.admit_us"] = (perQuery("workload.admit") + perQuery("workload.release")) / 1e3
	m["rde.switch_sync_ms"] = perQuery("rde.switch_sync") / 1e6
	m["rde.freshness_us"] = perQuery("rde.freshness") / 1e3
	m["rde.source_us"] = perQuery("rde.source") / 1e3
	m["index.refresh_ms"] = perQuery("index.refresh") / 1e6
	etlNS, etlBytes := tr.total("rde.etl", "bytes")
	m["rde.etl_ms"] = float64(etlNS) / queries / 1e6
	m["rde.etl_mb_per_s"] = ratio(float64(etlBytes)/1e6, float64(etlNS)/1e9)
	execNS, scanned := tr.total("olap.exec", "bytes")
	m["olap.exec_ms"] = float64(execNS) / queries / 1e6
	m["olap.scan_mb_per_s"] = ratio(float64(scanned)/1e6, float64(execNS)/1e9)
	_, body := tr.total("txn.phase", "body_ns")
	_, commit := tr.total("txn.phase", "commit_ns")
	m["txn.body_us"] = float64(body) / txns / 1e3
	m["txn.commit_us"] = float64(commit) / txns / 1e3

	self := tr.layerSelf()
	var total int64
	for _, ns := range self {
		total += ns
	}
	for _, l := range []struct{ metric, layer string }{
		{"self.core_frac", "core"}, {"self.workload_frac", "workload"}, {"self.rde_frac", "rde"},
		{"self.index_frac", "index"}, {"self.olap_query_frac", "olap"}, {"self.txn_frac", "txn"},
	} {
		m[l.metric] = ratio(float64(self[l.layer]), float64(total))
	}
	if err := tr.write(fmt.Sprintf("%s/out/trace-%s.json", cfg.dir, sp.name), sp.name, cfg.seed, self); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}

	probeColumnar(in.db, cfg.probeN, m)
	probeSort(cfg.probeN, m)
	probeLookups(in.db, cfg.probeN, m)
	a, f, err := probeQuery(ctx, in, m)
	res.attempted, res.failed = res.attempted+a, res.failed+f
	if err != nil {
		return nil, fmt.Errorf("query probe: %w", err)
	}
	a, f, err = probeContention(ctx, in, m)
	res.attempted, res.failed = res.attempted+a, res.failed+f
	if err != nil {
		return nil, fmt.Errorf("contention probe: %w", err)
	}
	if err := probeWAL(in, m); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	if err := probeDurability(in, m); err != nil {
		return nil, fmt.Errorf("durability probe: %w", err)
	}
	return res, nil
}
