package harness

import (
	"fmt"
	"math"

	"varsim/internal/core"
	"varsim/internal/report"
	"varsim/internal/sampling"
	"varsim/internal/stats"
)

// adaptiveTarget resolves the stopping rule the sampling experiment
// uses. An unset MaxRuns is pinned to the fixed-N baseline so the
// adaptive schedule can never spend more than the methodology it
// replaces and the runs-saved comparison stays apples-to-apples.
func (h *H) adaptiveTarget() sampling.Target {
	t := h.opt.Adaptive
	if t.MaxRuns <= 0 {
		t.MaxRuns = h.runs()
	}
	return t.Normalize()
}

// SamplingStudy is the adaptive-sampling extension: the same three
// study shapes the paper runs fixed-N, re-run under the adaptive
// scheduler (docs/SAMPLING.md), each reporting achieved-vs-requested
// precision and the runs saved against the fixed-N baseline.
//
//  1. The Table 3 benchmarks, each stopping on its own CI: they are
//     not competing configurations.
//  2. The Table 1 L2-associativity matrix, settled and printed pair by
//     pair against the best configuration (sampling.DecideMatrix).
//  3. An OLTP time-sampling study where replication is stratified
//     across starting checkpoints, every stratum taking an equal share
//     of each round.
//
// Every executed run keeps its fixed-N identity and studies 1 and 2
// take their experiments from table3Fleet and assocExperiment, so a
// result journal written by table1/table3 replays into this experiment
// for free (TestSamplingReplaysTableJournals).
func (h *H) SamplingStudy() error {
	t := h.adaptiveTarget()
	fmt.Fprintf(h.opt.Out, "stopping rule: ±%.3g%% at %.3g%% confidence, pilot %d, cap %d runs/config\n",
		100*t.RelErr, 100*t.Confidence, t.MinRuns, t.MaxRuns)

	// Study 1: Table 3 benchmarks, independent early stopping.
	arms, err := table3Fleet(h, func(e core.Experiment) (sampling.Arm, error) {
		_, arm, err := e.AdaptiveSpace(t)
		return arm, err
	})
	if err != nil {
		return err
	}
	table3 := sampling.Report{Target: t, Arms: arms}
	table3.Finalize()
	fmt.Fprintln(h.opt.Out, "\n-- Table 3 benchmarks, adaptive early stopping --")
	h.samplingTable(table3)

	// Study 2: the L2-associativity matrix, settled on its pair verdicts.
	var es []core.Experiment
	for _, assoc := range assocWays {
		es = append(es, h.assocExperiment(assoc))
	}
	spaces, matrix, err := core.AdaptiveMatrix(es, t)
	if err != nil {
		return err
	}
	fmt.Fprintln(h.opt.Out, "\n-- L2 associativity matrix, pair verdicts --")
	h.samplingTable(matrix)
	best := lowest(spaces, math.MaxInt)
	for i, sp := range spaces {
		if i == best {
			continue
		}
		// The verdict over the samples that settled the arm: live arms grow
		// in lockstep, so its barrier saw every arm's first min(len, n).
		n := len(sp.Values)
		rival := spaces[lowest(spaces, n)]
		rival.Values = rival.Values[:min(len(rival.Values), n)]
		cmp, err := core.Compare(sp, rival, t.Confidence)
		if err != nil {
			return err
		}
		fmt.Fprintf(h.opt.Out, "%s [%s %d runs, %s %d runs]\n", cmp.Conclusion(sampling.PairAlpha(t)),
			sp.Label, n, rival.Label, len(rival.Values))
	}

	// Study 3: stratified replication across OLTP starting checkpoints.
	var cks []int64
	for i := int64(1); i <= 4; i++ {
		cks = append(cks, h.scaleTxns(i*1000))
	}
	e := h.experiment("oltp", h.baseConfig(), "oltp", 0, h.scaleTxns(200), 0x9A)
	_, stratArm, err := e.AdaptiveTimeSample(cks, t)
	if err != nil {
		return err
	}
	strat := sampling.Report{Target: t, Arms: []sampling.Arm{stratArm}}
	strat.Finalize()
	fmt.Fprintf(h.opt.Out, "\n-- OLTP stratified time sampling, %d checkpoints --\n", len(cks))
	h.samplingTable(strat)

	saved := table3.FixedN + matrix.FixedN + strat.FixedN - table3.Executed - matrix.Executed - strat.Executed
	fmt.Fprintf(h.opt.Out, "\nacross all three studies: %d runs saved vs fixed-N\n", saved)
	return nil
}

// lowest is DecideMatrix's best arm at a barrier where the live arms
// held n runs: the lowest mean of the first n values, ties to the first.
func lowest(spaces []core.Space, n int) int {
	mean := func(i int) float64 { return stats.Mean(spaces[i].Values[:min(len(spaces[i].Values), n)]) }
	best := 0
	for i := range spaces {
		if mean(i) < mean(best) {
			best = i
		}
	}
	return best
}

// samplingTable prints one study's report as the WriteSampling block
// and files its arms with the report collector for CSV/JSON export.
func (h *H) samplingTable(rep sampling.Report) {
	report.WriteSampling(h.opt.Out, rep)
	if h.opt.Report == nil {
		return
	}
	rows := [][]string{}
	for _, a := range rep.Arms {
		achieved := "-"
		if a.RelPct > 0 {
			achieved = fmt.Sprintf("%.2f%%", a.RelPct)
		}
		rows = append(rows, []string{a.Experiment, fmt.Sprint(a.Executed), fmt.Sprint(a.FixedN),
			fmt.Sprint(a.Rounds), achieved, a.Status})
	}
	h.opt.Report.Add(h.current, "arm\truns\tfixed-N\trounds\tachieved\tstatus", rows)
}
