package experiments

// AlphaRow is one point of the α-sensitivity ablation: how
// the ETL-sensitivity knob trades per-query latency against ETL frequency
// in the adaptive schedule.
type AlphaRow struct {
	Alpha float64
	// ETLs is the number of delta-ETL operations across the run.
	ETLs int
	// TotalSeconds is the cumulative sequence time.
	TotalSeconds float64
	// MaxSeqSeconds is the worst sequence (the tail a too-small α causes).
	MaxSeqSeconds float64
	// FinalOLTPMTPS is the transactional throughput at the end of the run.
	FinalOLTPMTPS float64
}

// AlphaSweep runs the adaptive S3-NI schedule over a range of α values:
// "Small values of α increase the sensitivity of the scheduler into
// performing an ETL ... Instead, big values of α are beneficial for
// workloads where every query is expected to access a small subset of the
// updated data" (§4.2); "Smaller values of α cause smaller tail latency,
// but at the cost of smaller benefit for the rest of the queries" (§5.3).
func AlphaSweep(opt Options, sequences int, alphas []float64) ([]AlphaRow, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.1, 0.3, 0.5, 0.6, 0.7, 0.9}
	}
	if sequences <= 0 {
		sequences = 40
	}
	var rows []AlphaRow
	for _, a := range alphas {
		o := opt
		o.Alpha = a
		series, err := Figure5(o, sequences, []Schedule{SchedAdaptiveNI})
		if err != nil {
			return nil, err
		}
		row := AlphaRow{Alpha: a}
		for _, p := range series[0].Points {
			row.ETLs += p.ETLs
			row.TotalSeconds += p.Seconds
			if p.Seconds > row.MaxSeqSeconds {
				row.MaxSeqSeconds = p.Seconds
			}
		}
		row.FinalOLTPMTPS = series[0].Points[len(series[0].Points)-1].OLTPMTPS
		rows = append(rows, row)
	}
	return rows, nil
}
