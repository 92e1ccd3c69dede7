package harness

import (
	"fmt"

	"varsim/internal/core"
	"varsim/internal/plot"
	"varsim/internal/rng"
	"varsim/internal/stats"
)

// printSpaceSummaries renders the avg/min/max (+/- sigma) view the
// paper's Figures 5 and 6 plot, as a table and as an error-bar chart.
func (h *H) printSpaceSummaries(unit string, spaces map[int]core.Space) {
	rows := [][]string{}
	var pts []plot.ErrorBarPoint
	for _, k := range sortedKeys(spaces) {
		s := spaces[k].Summary()
		rows = append(rows, []string{
			fmt.Sprintf("%d%s", k, unit),
			fmt.Sprintf("%.0f", s.Mean),
			fmt.Sprintf("%.0f", s.StdDev),
			fmt.Sprintf("%.0f", s.Min),
			fmt.Sprintf("%.0f", s.Max),
			fmt.Sprintf("%.2f%%", s.CoV),
		})
		pts = append(pts, plot.ErrorBarPoint{
			Label: fmt.Sprintf("%d%s", k, unit),
			Mean:  s.Mean, Dev: s.StdDev, Min: s.Min, Max: s.Max,
		})
	}
	h.table("config\tavg CPT\tsigma\tmin\tmax\tCoV", rows)
	fmt.Fprint(h.opt.Out, plot.ErrorBars("", "cycles per transaction", pts, 14))
}

// printWCRTable renders the pairwise Wrong Conclusion Ratio table
// (Tables 1 and 2).
func (h *H) printWCRTable(name string, unit string, spaces map[int]core.Space) error {
	keys := sortedKeys(spaces)
	rows := [][]string{}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			a, b := spaces[keys[i]], spaces[keys[j]]
			cmp, err := core.Compare(a, b, 0.95)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d%s vs (%d%s)", keys[i], unit, keys[j], unit),
				fmt.Sprintf("%.0f%%", cmp.WCRPct),
				fmt.Sprintf("%.1f%%", cmp.MeanDiffPct),
				cmp.Faster.Label,
			})
		}
	}
	h.table(name+"\tWCR\tmean diff\tsuperior config", rows)
	return nil
}

// Table1CacheAssoc reproduces Experiment 1 (Table 1 + Figure 5): L2
// associativity 1/2/4-way, twenty 200-transaction OLTP runs each, and
// the Wrong Conclusion Ratio of all pairwise single-run comparisons.
func (h *H) Table1CacheAssoc() error {
	spaces, err := h.assocSpaces()
	if err != nil {
		return err
	}
	h.printSpaceSummaries("-way", spaces)
	if err := h.printWCRTable("configurations compared", "-way", spaces); err != nil {
		return err
	}
	fmt.Fprintln(h.opt.Out, "paper: WCR 24% (DM vs 2-way), 10% (DM vs 4-way), 31% (2-way vs 4-way); averages favour higher associativity, ranges overlap")
	return nil
}

// Table2ROB reproduces Experiment 2 (Table 2 + Figure 6): reorder buffer
// 16/32/64 entries on the detailed processor, twenty 50-transaction
// OLTP runs each, plus WCR.
func (h *H) Table2ROB() error {
	spaces, err := h.robSpaces()
	if err != nil {
		return err
	}
	h.printSpaceSummaries("-entry", spaces)
	if err := h.printWCRTable("configurations compared", "-entry", spaces); err != nil {
		return err
	}
	fmt.Fprintln(h.opt.Out, "paper: WCR 18% (16 vs 32), 7.5% (16 vs 64), 26% (32 vs 64); averages favour larger ROBs, ranges overlap")
	return nil
}

// Fig10ConfidenceIntervals reproduces Figure 10: 95% confidence
// intervals for the 32- and 64-entry ROB configurations tighten as the
// sample grows from 5 to 20 runs; at 20 runs they no longer overlap.
func (h *H) Fig10ConfidenceIntervals() error {
	spaces, err := h.robSpaces()
	if err != nil {
		return err
	}
	a, b := spaces[32], spaces[64]
	rows := [][]string{}
	maxN := len(a.Values)
	for _, n := range []int{5, 10, 15, 20} {
		if n > maxN {
			break
		}
		cia, err := stats.CI(a.Values[:n], 0.95)
		if err != nil {
			return err
		}
		cib, err := stats.CI(b.Values[:n], 0.95)
		if err != nil {
			return err
		}
		overlap := "disjoint -> wrong-conclusion probability < 5%"
		if cia.Overlaps(cib) {
			overlap = "overlap -> not significant at 95%"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("[%.0f, %.0f]", cia.Lo, cia.Hi),
			fmt.Sprintf("[%.0f, %.0f]", cib.Lo, cib.Hi),
			overlap,
		})
	}
	h.table("sample size\t32-entry 95% CI\t64-entry 95% CI\tverdict", rows)
	return nil
}

// Fig11TTestRegions reproduces Figure 11: the one-sided t-test of
// H0: mu32 = mu64 against mu32 > mu64, with the acceptance/rejection
// boundary at several significance levels.
func (h *H) Fig11TTestRegions() error {
	spaces, err := h.robSpaces()
	if err != nil {
		return err
	}
	res, err := stats.TTest(spaces[32].Values, spaces[64].Values, stats.Greater)
	if err != nil {
		return err
	}
	fmt.Fprintf(h.opt.Out, "test statistic t = %.3f with %d degrees of freedom (one-sided p = %.4g)\n",
		res.Statistic, int(res.DF), res.P)
	rows := [][]string{}
	for _, alpha := range []float64{0.10, 0.05, 0.025, 0.01, 0.005} {
		crit := stats.TQuantile(1-alpha, res.DF)
		verdict := "accept H0 (cannot conclude 64-entry is better)"
		if res.Statistic > crit {
			verdict = "reject H0 (64-entry ROB outperforms 32-entry)"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.1f%%", 100*alpha),
			fmt.Sprintf("t > %.3f", crit),
			verdict,
		})
	}
	h.table("significance level\trejection region\tverdict", rows)
	return nil
}

// Table5RunsNeeded reproduces Table 5: the number of runs needed to
// bound the wrong-conclusion probability at each significance level,
// read off the ROB experiment's wrong-conclusion curve (the smallest n
// whose WCR(n) is at most the level) beside the projection from the
// sample moments, then the curve itself.
func (h *H) Table5RunsNeeded() error {
	spaces, err := h.robSpaces()
	if err != nil {
		return err
	}
	a, b := spaces[32].Values, spaces[64].Values
	curve := core.WCRCurve(a, b, rng.Derive(h.opt.Seed, 0x75))
	ms, mf := stats.Mean(a), stats.Mean(b)
	if ms < mf {
		ms, mf = mf, ms
	}
	sd := (stats.StdDev(a) + stats.StdDev(b)) / 2
	rows := [][]string{}
	for _, alpha := range []float64{0.10, 0.05, 0.025, 0.01, 0.005} {
		need := fmt.Sprintf("> %d", len(curve))
		for n, wcr := range curve {
			if wcr <= alpha {
				need = fmt.Sprintf("%d", n+1)
				break
			}
		}
		proj := stats.MinRunsProjected(ms, mf, sd, alpha)
		projStr := fmt.Sprintf("%d", proj)
		if proj == 0 {
			projStr = "n/a"
		}
		rows = append(rows, []string{fmt.Sprintf("%.1f%%", 100*alpha), need, projStr})
	}
	h.table("significance level (wrong conclusion probability)\truns needed (WCR(n) at most level)\truns needed (projected)", rows)
	fmt.Fprintln(h.opt.Out, "paper: 6 runs at 10%, 9 at 5%, 11 at 2.5%, 13 at 1%, 16 at 0.5%")
	rows = rows[:0]
	for n, wcr := range curve {
		rows = append(rows, []string{fmt.Sprintf("%d", n+1), fmt.Sprintf("%.2f%%", 100*wcr)})
	}
	h.table("runs per configuration (32- vs 64-entry ROB)\tWCR(n)", rows)
	return nil
}
