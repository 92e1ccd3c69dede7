package report

import (
	"fmt"
	"io"

	"varsim/internal/sampling"
)

// WriteSampling renders an adaptive-sampling report: the
// achieved-vs-requested precision table (one arm per configuration)
// and the runs-saved accounting against the fixed-N baseline. The
// format is pinned by golden tests, and — because the scheduler's
// decisions are pure functions of index-ordered merged values — the
// rendered bytes are identical at any fleet width and across
// kill-and-resume, the same contract WriteSpace carries.
func WriteSampling(w io.Writer, rep sampling.Report) {
	fmt.Fprintf(w, "adaptive sampling: target ±%.3g%% of the mean at %.3g%% confidence (pilot %d, cap %d runs/config)\n",
		100*rep.RelErr, 100*rep.Confidence, rep.MinRuns, rep.MaxRuns)
	if len(rep.Arms) == 0 {
		fmt.Fprintf(w, "  no configurations scheduled\n")
		return
	}
	fmt.Fprintf(w, "  %-16s %-10s %5s %6s %7s  %-9s %7s  %s\n",
		"experiment", "config", "runs", "fixed", "rounds", "achieved", "needed", "status")
	for _, a := range rep.Arms {
		cfg := a.ConfigHash
		if len(cfg) > 10 {
			cfg = cfg[:10]
		}
		achieved, needed := "-", "-"
		if a.RelPct > 0 {
			achieved = fmt.Sprintf("±%.3g%%", a.RelPct)
		}
		if a.Needed > 0 {
			needed = fmt.Sprintf("%d", a.Needed)
		}
		fmt.Fprintf(w, "  %-16s %-10s %5d %6d %7d  %-9s %7s  %s\n",
			a.Experiment, cfg, a.Executed, a.FixedN, a.Rounds, achieved, needed, a.Status)
	}
	if rep.FixedN > 0 {
		fmt.Fprintf(w, "runs saved: %d of %d fixed-N runs executed (%.1f%% saved)\n",
			rep.Executed, rep.FixedN, rep.SavedPct)
	}
	if rep.Incomplete {
		fmt.Fprintf(w, "\nINCOMPLETE: adaptive schedule interrupted mid-round; rerun with -resume to continue\n")
	}
}
