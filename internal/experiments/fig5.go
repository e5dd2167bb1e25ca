package experiments

import (
	"context"
	"fmt"

	"elastichtap/internal/core"
)

// Schedule names a Figure 5 configuration.
type Schedule string

// The six schedules of Figure 5.
const (
	SchedS1         Schedule = "S1"
	SchedS2         Schedule = "S2"
	SchedS3IS       Schedule = "S3-IS"
	SchedS3NI       Schedule = "S3-NI"
	SchedAdaptiveIS Schedule = "Adaptive-S3-IS"
	SchedAdaptiveNI Schedule = "Adaptive-S3-NI"
)

// AllSchedules lists Figure 5's configurations in plot order.
func AllSchedules() []Schedule {
	return []Schedule{SchedS1, SchedS2, SchedS3IS, SchedAdaptiveIS, SchedS3NI, SchedAdaptiveNI}
}

// Fig5Point is one sequence execution under one schedule.
type Fig5Point struct {
	Sequence int
	// Seconds is the total sequence execution time (Q1+Q6+Q19 including
	// any ETL), Figure 5(a).
	Seconds float64
	// OLTPMTPS is the transactional throughput during the sequence,
	// Figure 5(b).
	OLTPMTPS float64
	// ETLs counts delta-ETL operations triggered within the sequence.
	ETLs int
}

// Fig5Series is one schedule's trajectory.
type Fig5Series struct {
	Schedule Schedule
	Points   []Fig5Point
}

// Figure5 reproduces the adaptive-scheduling evaluation (§5.3): each
// schedule executes `sequences` repetitions of the {Q1, Q6, Q19} set while
// NewOrder transactions run concurrently; the database starts synchronized
// (freshness-rate 1, SF-30 emulation by default).
func Figure5(opt Options, sequences int, schedules []Schedule) ([]Fig5Series, error) {
	if opt.EmulateSF == 0 {
		opt.EmulateSF = 30
	}
	if opt.Items == 0 {
		// A realistic update working set: its slow saturation is what makes
		// Nfq/Nft grow toward 1 and lets Algorithm 2's ETL trigger fire
		// mid-run rather than immediately or never (§4.2).
		opt.Items = 30000
	}
	if opt.PaymentPct == 0 {
		opt.PaymentPct = 30
	}
	if opt.Alpha == 0 {
		// The paper sets α=0.5 under its freshness accounting; with this
		// reproduction's whole-row accounting the ratio's dynamic range is
		// ~[0.5, 0.8], so the equivalent operating point — ETL every few
		// tens of sequences, one query paying the latency (§5.3) — sits near
		// 0.6.
		opt.Alpha = 0.6
	}
	if sequences <= 0 {
		sequences = 100
	}
	if len(schedules) == 0 {
		schedules = AllSchedules()
	}
	var out []Fig5Series
	for _, sched := range schedules {
		series, err := runSchedule(opt, sched, sequences)
		if err != nil {
			return nil, fmt.Errorf("experiments: schedule %s: %w", sched, err)
		}
		out = append(out, series)
	}
	return out, nil
}

func runSchedule(opt Options, sched Schedule, sequences int) (Fig5Series, error) {
	env, err := NewEnv(opt)
	if err != nil {
		return Fig5Series{}, err
	}
	defer env.Close()
	cfg := env.Sys.Sched.Config()
	var force *core.State
	switch sched {
	case SchedS1:
		force = core.ForcedState(core.S1)
	case SchedS2:
		force = core.ForcedState(core.S2)
	case SchedS3IS:
		force = core.ForcedState(core.S3IS)
	case SchedS3NI:
		force = core.ForcedState(core.S3NI)
	case SchedAdaptiveIS:
		cfg.Elasticity = false // Algorithm 2 alternates S3-IS and S2
	case SchedAdaptiveNI:
		cfg.Elasticity = true
		cfg.Mode = core.ModeHybrid // Algorithm 2 alternates S3-NI and S2
	default:
		return Fig5Series{}, fmt.Errorf("unknown schedule %q", sched)
	}
	if err := env.Sys.Sched.SetConfig(cfg); err != nil {
		return Fig5Series{}, err
	}

	// Sequences are dispatched on a fixed arrival period, so the fresh
	// data between sequences grows with the transactional throughput but
	// not with the analytical response time. Back-to-back dispatch at this
	// model's interconnect ratio couples response time to fresh volume in
	// a runaway loop the paper's testbed does not exhibit; the periodic
	// driver reproduces the paper's near-linear growth.
	const arrivalPeriod = 1.5 // emulated seconds between sequence arrivals

	series := Fig5Series{Schedule: sched}
	for seq := 1; seq <= sequences; seq++ {
		var pt Fig5Point
		pt.Sequence = seq
		var tputSum float64
		queries := env.Queries()
		for _, q := range queries {
			rep, _, err := env.Sys.RunQueryContext(context.Background(), q, core.QueryOptions{ForceState: force}, nil)
			if err != nil {
				return series, err
			}
			pt.Seconds += rep.ResponseSeconds
			tputSum += rep.OLTPDuringTPS
			if rep.ETLSeconds > 0 {
				pt.ETLs++
			}
		}
		pt.OLTPMTPS = tputSum / float64(len(queries)) / 1e6
		env.InjectFor(arrivalPeriod, pt.OLTPMTPS*1e6)
		series.Points = append(series.Points, pt)
	}
	return series, nil
}

// ConvergenceRow reports the §5.3 convergence claim: the widening gap of
// Adaptive-S3-NI over static S3-NI at sequence checkpoints.
type ConvergenceRow struct {
	Sequence   int
	StaticSecs float64 // cumulative static S3-NI time
	AdaptSecs  float64 // cumulative adaptive time
	GapPct     float64 // 100*(static-adaptive)/static
}

// Convergence extends Figure 5 for the S3-NI pair ("11%, 22% and 26%
// performance gains at 100th, 200th and 250th sequence execution", §5.3).
func Convergence(opt Options, checkpoints []int) ([]ConvergenceRow, error) {
	if len(checkpoints) == 0 {
		checkpoints = []int{100, 200, 250, 300}
	}
	max := 0
	for _, c := range checkpoints {
		if c > max {
			max = c
		}
	}
	series, err := Figure5(opt, max, []Schedule{SchedS3NI, SchedAdaptiveNI})
	if err != nil {
		return nil, err
	}
	static, adaptive := series[0].Points, series[1].Points
	var rows []ConvergenceRow
	var sSum, aSum float64
	idx := 0
	for i := 0; i < max; i++ {
		sSum += static[i].Seconds
		aSum += adaptive[i].Seconds
		if idx < len(checkpoints) && i+1 == checkpoints[idx] {
			gap := 0.0
			if sSum > 0 {
				gap = 100 * (sSum - aSum) / sSum
			}
			rows = append(rows, ConvergenceRow{
				Sequence:   i + 1,
				StaticSecs: sSum,
				AdaptSecs:  aSum,
				GapPct:     gap,
			})
			idx++
		}
	}
	return rows, nil
}
