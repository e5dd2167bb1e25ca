package experiments

import (
	"context"
	"elastichtap/internal/core"
	"elastichtap/internal/olap"
	"elastichtap/internal/rde"
)

// Fig3aRow is one point of Figure 3(a): state S1 sensitivity to the number
// of CPUs interchanged between the sockets while Q6 runs over the OLTP
// snapshot.
type Fig3aRow struct {
	CPUsInterchanged int
	OLTPOnlyMTPS     float64 // striped bars: no concurrent OLAP
	OLTPWithOLAPMTPS float64 // filled bars: during query execution
	OLAPRespSeconds  float64 // line: average query response time
}

// Fig3cRow is one point of Figure 3(c): S3-NI sensitivity to the number of
// OLTP CPUs lent to the OLAP engine, running Q1 with split access.
type Fig3cRow = Fig3aRow

// Figure3a reproduces the S1 sensitivity analysis (§5.2): the engines
// start fully isolated and gradually trade CPUs; each configuration runs
// Q6 16 times on the freshest snapshot and reports averages.
func Figure3a(opt Options) ([]Fig3aRow, error) {
	return sensitivitySweep(opt, core.S1, 14, 2,
		func(e *Env) olap.Query { return e.Q6() })
}

// Figure3c reproduces the S3-NI sensitivity analysis (§5.2) with Q1 and
// the split access method. Fresh data accumulates for a while before the
// sweep (the paper measures after the OLTP engine has been inserting), so
// the borrowed data-local cores have fresh data to reduce; the sweep stops
// before the OLTP engine would be left without workers.
func Figure3c(opt Options) ([]Fig3cRow, error) {
	return sensitivitySweep(opt, core.S3NI, 12, 60,
		func(e *Env) olap.Query { return e.Q1() })
}

func sensitivitySweep(opt Options, st core.State, maxCPUs int, warmupSimSecs float64, pick func(*Env) olap.Query) ([]Fig3aRow, error) {
	var rows []Fig3aRow
	for x := 0; x <= maxCPUs; x += 2 {
		row, err := func() (Fig3aRow, error) {
			env, err := NewEnv(opt)
			if err != nil {
				return Fig3aRow{}, err
			}
			defer env.Close()
			if err := env.allowTrading(maxCPUs); err != nil {
				return Fig3aRow{}, err
			}
			if err := env.setElasticCores(x); err != nil {
				return Fig3aRow{}, err
			}
			if warmupSimSecs > 0 {
				env.InjectFor(warmupSimSecs, env.Sys.OLTPThroughputNow())
			}
			return sensitivityPoint(env, pick(env), st, 16)
		}()
		if err != nil {
			return nil, err
		}
		row.CPUsInterchanged = x
		rows = append(rows, row)
	}
	return rows, nil
}

// sensitivityPoint executes the query `reps` times in the forced state,
// injecting the transactions the modeled OLTP engine commits meanwhile,
// and averages the reported metrics.
func sensitivityPoint(env *Env, q olap.Query, st core.State, reps int) (Fig3aRow, error) {
	var row Fig3aRow
	var sumResp, sumBase, sumDuring float64
	for i := 0; i < reps; i++ {
		rep, _, err := env.Sys.RunQueryContext(context.Background(), q, core.QueryOptions{
			ForceState: core.ForcedState(st),
		}, nil)
		if err != nil {
			return row, err
		}
		sumResp += rep.ResponseSeconds
		sumBase += rep.OLTPBaselineTPS
		sumDuring += rep.OLTPDuringTPS
		env.InjectFor(rep.ResponseSeconds, rep.OLTPDuringTPS)
	}
	n := float64(reps)
	row.OLAPRespSeconds = sumResp / n
	row.OLTPOnlyMTPS = sumBase / n / 1e6
	row.OLTPWithOLAPMTPS = sumDuring / n / 1e6
	return row, nil
}

// Fig3bRow is one point of Figure 3(b): S2 sensitivity to the query batch
// size; 16 Q6 executions total, grouped into batches over one snapshot.
type Fig3bRow struct {
	BatchSize        int
	QueryExecSeconds float64 // solid bars: cumulative execution time
	DataTransferSecs float64 // striped bars: cumulative ETL time
	OLTPTputMTPS     float64
	BytesTransferred int64
}

// Figure3b reproduces the S2 batch-amortization analysis (§5.2). Batches
// arrive periodically (the reporting-workload pattern, §2.3), so a fixed
// fresh quantum accumulates before each batch regardless of its size; the
// per-batch copy is then amortized as the batch grows, while the OLTP
// engine stays isolated on its socket.
func Figure3b(opt Options) ([]Fig3bRow, error) {
	const totalQueries = 16
	const interBatchSimSecs = 1.0
	var rows []Fig3bRow
	for _, batch := range []int{1, 2, 4, 8, 16} {
		row, err := func() (Fig3bRow, error) {
			env, err := NewEnv(opt)
			if err != nil {
				return Fig3bRow{}, err
			}
			defer env.Close()
			row := Fig3bRow{BatchSize: batch}
			var tputSum float64
			var tputN int
			executed := 0
			for executed < totalQueries {
				// Fresh data accumulated since the previous batch arrived.
				env.InjectFor(interBatchSimSecs, env.Sys.OLTPThroughputNow())
				var set *rde.SnapshotSet
				for i := 0; i < batch && executed < totalQueries; i++ {
					o := core.QueryOptions{ForceState: core.ForcedState(core.S2), Batch: true}
					rep, out, err := env.Sys.RunQueryContext(context.Background(), env.Q6(), o, set)
					if err != nil {
						return Fig3bRow{}, err
					}
					set = out
					row.QueryExecSeconds += rep.ExecSeconds
					row.DataTransferSecs += rep.ETLSeconds
					row.BytesTransferred += rep.ETLBytes
					tputSum += rep.OLTPDuringTPS
					tputN++
					executed++
				}
			}
			row.OLTPTputMTPS = tputSum / float64(tputN) / 1e6
			return row, nil
		}()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
