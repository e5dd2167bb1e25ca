package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// RenderFig1 writes Figure 1's rows as a text table.
func RenderFig1(w io.Writer, rows []Fig1Row) {
	tw := newTW(w)
	fmt.Fprintln(tw, "mode\tqueries/seq\tquery exec (s)\tdata transfer (s)\tOLTP (MTPS)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\n",
			r.Mode, r.QueriesPerSeq, r.QueryExecSeconds, r.DataTransferSeconds, r.OLTPTputMTPS)
	}
	tw.Flush()
}

// RenderFig3a writes Figure 3(a)/3(c) rows as a text table.
func RenderFig3a(w io.Writer, rows []Fig3aRow, xLabel string) {
	tw := newTW(w)
	fmt.Fprintf(tw, "%s\tOLTP only (MTPS)\tOLTP w/ OLAP (MTPS)\tOLAP resp (s)\n", xLabel)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\n",
			r.CPUsInterchanged, r.OLTPOnlyMTPS, r.OLTPWithOLAPMTPS, r.OLAPRespSeconds)
	}
	tw.Flush()
}

// RenderFig3b writes Figure 3(b) rows as a text table.
func RenderFig3b(w io.Writer, rows []Fig3bRow) {
	tw := newTW(w)
	fmt.Fprintln(tw, "batch size\tquery exec (s)\tdata transfer (s)\tOLTP (MTPS)\tbytes moved")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\t%d\n",
			r.BatchSize, r.QueryExecSeconds, r.DataTransferSecs, r.OLTPTputMTPS, r.BytesTransferred)
	}
	tw.Flush()
}

// RenderFig4 writes Figure 4's rows as a text table.
func RenderFig4(w io.Writer, rows []Fig4Row) {
	tw := newTW(w)
	fmt.Fprintln(tw, "fresh %\tS3-IS split (s)\tS2 (s)\tS3-IS full remote (s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%.3f\t%.3f\t%.3f\n",
			r.FreshPct, r.SplitSeconds, r.S2Seconds, r.FullRemoteSeconds)
	}
	tw.Flush()
}

// RenderFig5 writes Figure 5's series, sampling every `every` sequences.
func RenderFig5(w io.Writer, series []Fig5Series, every int) {
	if every <= 0 {
		every = 10
	}
	tw := newTW(w)
	fmt.Fprint(tw, "seq")
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s (s)\t%s (MTPS)", s.Schedule, s.Schedule)
	}
	fmt.Fprintln(tw)
	if len(series) == 0 || len(series[0].Points) == 0 {
		tw.Flush()
		return
	}
	n := len(series[0].Points)
	for i := 0; i < n; i++ {
		if (i+1)%every != 0 && i != 0 && i != n-1 {
			continue
		}
		fmt.Fprintf(tw, "%d", i+1)
		for _, s := range series {
			fmt.Fprintf(tw, "\t%.3f\t%.3f", s.Points[i].Seconds, s.Points[i].OLTPMTPS)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// RenderTable1 writes the design classification.
func RenderTable1(w io.Writer) {
	tw := newTW(w)
	fmt.Fprintln(tw, "storage\tsystem\tsnapshot mechanism\tfreshness-perf tradeoff\tour state")
	for _, r := range Table1() {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", r.Storage, r.System, r.Mechanism, r.Tradeoff, r.OurState)
	}
	tw.Flush()
}

// RenderSyncClaim writes the sync-claim comparison.
func RenderSyncClaim(w io.Writer, r SyncClaimRow) {
	fmt.Fprintf(w, "sync of %d modified tuples in a %d-row database:\n", r.ModifiedRows, r.TotalRows)
	fmt.Fprintf(w, "  model (paper scale): %.1f ms (paper claims ~10 ms)\n", r.ModelSeconds*1e3)
	fmt.Fprintf(w, "  measured real copy:  %.1f ms (%d rows copied on this host)\n",
		r.MeasuredSeconds*1e3, r.CopiedRows)
}

// RenderConvergence writes the §5.3 convergence checkpoints.
func RenderConvergence(w io.Writer, rows []ConvergenceRow) {
	tw := newTW(w)
	fmt.Fprintln(tw, "sequence\tstatic S3-NI cum (s)\tadaptive cum (s)\tgap %")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.1f\n", r.Sequence, r.StaticSecs, r.AdaptSecs, r.GapPct)
	}
	tw.Flush()
}

// Summary line helpers shared by chbench and the benches.

// Fig5Gap returns the relative improvement of schedule b over a at the
// final sequence, in percent of a's cumulative time.
func Fig5Gap(series []Fig5Series, a, b Schedule) float64 {
	var ca, cb float64
	for _, s := range series {
		var cum float64
		for _, p := range s.Points {
			cum += p.Seconds
		}
		switch s.Schedule {
		case a:
			ca = cum
		case b:
			cb = cum
		}
	}
	if ca == 0 {
		return 0
	}
	return 100 * (ca - cb) / ca
}

func newTW(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Banner renders a section header.
func Banner(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// RenderTail writes the tail-latency comparison.
func RenderTail(w io.Writer, rows []TailRow) {
	tw := newTW(w)
	fmt.Fprintln(tw, "state\tmean (µs)\tP50 (µs)\tP99 (µs)\tOLTP (MTPS)\tbus util %\tIC util %")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.3f\t%.0f\t%.0f\n",
			r.State, r.MeanMicros, r.P50Micros, r.P99Micros, r.OLTPMTPS, r.BusUtilPct, r.CrossTraffc)
	}
	tw.Flush()
}

// RenderTenants writes the multi-tenant serving scenario: per-tenant
// arrival/rejection counts, latency tails, and measured morsel share
// against the configured weight share.
func RenderTenants(w io.Writer, rows []TenantRow) {
	tw := newTW(w)
	fmt.Fprintln(tw, "tenant\tclass\tweight\tsubmitted\tcompleted\trejected\tP50 (ms)\tP99 (ms)\tP99.9 (ms)\tmorsel share\tweight share")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.3f\t%.3f\n",
			r.Tenant, r.Class, r.Weight, r.Submitted, r.Completed, r.Rejected,
			r.P50Ms, r.P99Ms, r.P999Ms, r.MorselShare, r.WeightShare)
	}
	tw.Flush()
}

// RenderAlpha writes the α-sweep ablation.
func RenderAlpha(w io.Writer, rows []AlphaRow) {
	tw := newTW(w)
	fmt.Fprintln(tw, "alpha\tETLs\ttotal (s)\tworst seq (s)\tfinal OLTP (MTPS)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%d\t%.2f\t%.3f\t%.3f\n",
			r.Alpha, r.ETLs, r.TotalSeconds, r.MaxSeqSeconds, r.FinalOLTPMTPS)
	}
	tw.Flush()
}
