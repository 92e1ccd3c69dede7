package report

import (
	"fmt"
	"io"

	"varsim/internal/precision"
)

// WritePrecision renders a streaming precision report as the
// achieved-vs-requested table of the precision observatory: one row per
// (experiment, config) with the run count, mean, CoV, the CI's
// relative half-width against the requested target, and the §5.1.1
// runs-to-go estimate. Rows that cannot support a confidence interval
// yet print an explicit "n<2 (insufficient)" marker — never a NaN.
//
// The table is fed from sorted, order-independent statistics, but the
// tracker itself fills in host completion order, so this renderer is
// for live surfaces and post-hoc journal replays (varsim precision) —
// it is never part of the byte-identical default report.
func WritePrecision(w io.Writer, rep precision.Report) {
	if len(rep.Rows) == 0 {
		fmt.Fprintf(w, "precision: no observations\n")
		return
	}
	fmt.Fprintf(w, "precision: target ±%.3g%% of the mean at %.3g%% confidence\n",
		100*rep.RelErr, 100*rep.Confidence)
	fmt.Fprintf(w, "  %-16s %-10s %4s  %12s %8s  %-14s %7s  %s\n",
		"experiment", "config", "n", "mean", "CoV%", "achieved", "to-go", "status")
	for _, r := range rep.Rows {
		cfg := r.ConfigHash
		if len(cfg) > 10 {
			cfg = cfg[:10]
		}
		if r.Insufficient {
			note := "n<2 (insufficient)"
			if r.Rejected > 0 {
				note = fmt.Sprintf("%s, %d rejected", note, r.Rejected)
			}
			fmt.Fprintf(w, "  %-16s %-10s %4d  %12s %8s  %-14s %7s  %s\n",
				r.Experiment, cfg, r.N, "-", "-", "-", "-", note)
			continue
		}
		status := "converging"
		if r.Converged {
			status = "converged"
		}
		if r.Rejected > 0 {
			status = fmt.Sprintf("%s, %d rejected", status, r.Rejected)
		}
		fmt.Fprintf(w, "  %-16s %-10s %4d  %12.2f %8.3f  %-14s %7d  %s\n",
			r.Experiment, cfg, r.N, r.Mean, r.CoVPct,
			fmt.Sprintf("±%.3g%%", r.RelHalfWidthPct), r.RunsToGo, status)
	}
}
