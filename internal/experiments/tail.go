package experiments

import (
	"context"
	"elastichtap/internal/core"
	"elastichtap/internal/costmodel"
)

// TailRow reports OLTP latency percentiles in one system state while a Q6
// scan runs concurrently — the paper's qualitative tail-latency ordering
// (§5.2): S2 and S3-IS smallest, S3-NI higher, S1 worst.
type TailRow struct {
	State       string
	MeanMicros  float64
	P50Micros   float64
	P99Micros   float64
	OLTPMTPS    float64
	BusUtilPct  float64 // home-socket bus utilization during the scan
	CrossTraffc float64 // interconnect utilization
}

// TailLatency evaluates all four states on identical fresh state.
func TailLatency(opt Options) ([]TailRow, error) {
	var rows []TailRow
	for _, st := range []core.State{core.S2, core.S3IS, core.S3NI, core.S1} {
		row, err := func() (TailRow, error) {
			env, err := NewEnv(opt)
			if err != nil {
				return TailRow{}, err
			}
			defer env.Close()
			if err := env.allowTrading(14); err != nil {
				return TailRow{}, err
			}
			env.InjectFor(10, env.Sys.OLTPThroughputNow())
			rep, _, err := env.Sys.RunQueryContext(context.Background(), env.Q6(), core.QueryOptions{
				ForceState: core.ForcedState(st),
			}, nil)
			if err != nil {
				return TailRow{}, err
			}
			_, oltpP, _ := env.Sys.Sched.Placements()
			tail := env.Sys.Model.OLTPTailLatency(costmodel.OLTPLoad{
				Workers:    oltpP,
				HomeSocket: env.Sys.Cfg.OLTPSocket,
				Background: rep.ScanUsage,
			})
			return TailRow{
				State:       st.String(),
				MeanMicros:  tail.MeanSeconds * 1e6,
				P50Micros:   tail.P50Seconds * 1e6,
				P99Micros:   tail.P99Seconds * 1e6,
				OLTPMTPS:    rep.OLTPDuringTPS / 1e6,
				BusUtilPct:  100 * rep.ScanUsage.On(env.Sys.Cfg.OLTPSocket),
				CrossTraffc: 100 * rep.ScanUsage.Interconnect,
			}, nil
		}()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
