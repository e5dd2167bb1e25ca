package experiments

import (
	"context"
	"math"

	"elastichtap/internal/ch"
	"elastichtap/internal/core"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/rde"
)

// Fig1Row is one bar group of Figure 1: the ETL-versus-CoW motivation
// experiment on a 4-socket server with the engines on two sockets.
type Fig1Row struct {
	Mode          string // "ETL" or "CoW"
	QueriesPerSeq int    // snapshot frequency: a new snapshot every N queries
	// Per-query averages over 16 aggregate query executions.
	QueryExecSeconds    float64
	DataTransferSeconds float64
	OLTPTputMTPS        float64
}

// Figure1 reproduces the motivation experiment (§1): the same aggregate
// query (Q6) runs 16 times; a fresh snapshot is taken every {1,2,4,8,16}
// queries. "ETL" transfers the fresh delta before executing; "CoW" lets
// queries run on a shared hardware-supported copy-on-write snapshot while
// the OLTP engine pays page-copy costs for every write to a not-yet-copied
// page. TPC-C NewOrder runs concurrently with one warehouse per worker.
func Figure1(opt Options) ([]Fig1Row, error) {
	if opt.Sockets == 0 {
		opt.Sockets = 4
	}
	var rows []Fig1Row
	for _, freq := range []int{1, 2, 4, 8, 16} {
		etl, err := figure1ETL(opt, freq)
		if err != nil {
			return nil, err
		}
		rows = append(rows, etl)
		cow, err := figure1CoW(opt, freq)
		if err != nil {
			return nil, err
		}
		rows = append(rows, cow)
	}
	return rows, nil
}

func figure1ETL(opt Options, freq int) (Fig1Row, error) {
	const totalQueries = 16
	env, err := NewEnv(opt)
	if err != nil {
		return Fig1Row{}, err
	}
	defer env.Close()
	env.InjectFor(1.0, env.Sys.OLTPThroughputNow())

	row := Fig1Row{Mode: "ETL", QueriesPerSeq: freq}
	var tputSum float64
	executed := 0
	for executed < totalQueries {
		var set *rde.SnapshotSet
		for i := 0; i < freq && executed < totalQueries; i++ {
			o := core.QueryOptions{ForceState: core.ForcedState(core.S2), Batch: true}
			rep, out, err := env.Sys.RunQueryContext(context.Background(), env.Q6(), o, set)
			if err != nil {
				return row, err
			}
			set = out
			row.QueryExecSeconds += rep.ExecSeconds
			row.DataTransferSeconds += rep.ETLSeconds
			tputSum += rep.OLTPDuringTPS
			executed++
			env.InjectFor(rep.ResponseSeconds, rep.OLTPDuringTPS)
		}
	}
	row.QueryExecSeconds /= totalQueries
	row.DataTransferSeconds /= totalQueries
	row.OLTPTputMTPS = tputSum / totalQueries / 1e6
	return row, nil
}

func figure1CoW(opt Options, freq int) (Fig1Row, error) {
	const totalQueries = 16
	env, err := NewEnv(opt)
	if err != nil {
		return Fig1Row{}, err
	}
	defer env.Close()
	env.InjectFor(1.0, env.Sys.OLTPThroughputNow())

	row := Fig1Row{Mode: "CoW", QueriesPerSeq: freq}
	var tputSum float64
	executed := 0
	for executed < totalQueries {
		// A new CoW snapshot (fork) every `freq` queries: queries read the
		// shared data in place with co-located compute — the paper maps
		// CoW systems to state S1 (§3.4) — and no transfer is charged.
		var set *rde.SnapshotSet
		for i := 0; i < freq && executed < totalQueries; i++ {
			o := core.QueryOptions{
				ForceState:  core.ForcedState(core.S1),
				ForceMethod: core.ForcedMethod(rde.ReadSnapshot),
				Batch:       true,
			}
			rep, out, err := env.Sys.RunQueryContext(context.Background(), env.Q6(), o, set)
			if err != nil {
				return row, err
			}
			set = out
			row.QueryExecSeconds += rep.ExecSeconds

			// CoW page-copy overhead: every write to a not-yet-copied page
			// duplicates it. With the snapshot freshly taken, the expected
			// pages touched follow the occupancy model over the updatable
			// working set (stock + district), at emulated scale.
			tps := cowThroughput(env, rep, freq)
			tputSum += tps
			executed++
			env.InjectFor(rep.ExecSeconds, tps)
		}
	}
	row.QueryExecSeconds /= totalQueries
	row.DataTransferSeconds = 0
	row.OLTPTputMTPS = tputSum / totalQueries / 1e6
	return row, nil
}

// cowThroughput solves the small fixed point between throughput and the
// per-transaction page-copy overhead: more transactions during the window
// touch more distinct pages until the whole working set is copied.
func cowThroughput(env *Env, rep core.QueryReport, freq int) float64 {
	m := env.Sys.Model
	p := m.Params()
	// Updatable working set at emulated scale: stock rows dominate.
	emuStockRows := float64(ch.SizingForScale(env.Opt.EmulateSF).StockRows())
	rowBytes := float64(env.DB.Stock.Table().Schema().RowBytes())
	rowsPerPage := math.Max(1, float64(p.CoWPageBytes)/rowBytes)
	pages := math.Max(1, emuStockRows/rowsPerPage)

	window := rep.ExecSeconds * float64(freq) // snapshot lifetime
	_, oltpP, _ := env.Sys.Sched.Placements()
	load := costmodel.OLTPLoad{
		Workers:    oltpP,
		HomeSocket: env.Sys.Cfg.OLTPSocket,
		Background: rep.ScanUsage,
	}
	tps := m.OLTPThroughput(load).TPS
	const updatesPerTxn = 10 // stock rows written by one NewOrder
	for iter := 0; iter < 8; iter++ {
		txns := math.Max(1, tps*window)
		touches := txns * updatesPerTxn
		copied := pages * (1 - math.Pow(1-1/pages, touches))
		load.ExtraPerTxnSeconds = m.CoWOverhead(copied / txns)
		next := m.OLTPThroughput(load).TPS
		if math.Abs(next-tps) < 1e3 {
			tps = next
			break
		}
		tps = next
	}
	return tps
}
