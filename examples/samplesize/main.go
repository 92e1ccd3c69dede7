// Samplesize shows how to plan a simulation experiment (§5.1): run a
// small pilot, then compute how many runs are needed for a target
// relative error and for a target wrong-conclusion probability.
package main

import (
	"fmt"
	"log"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/stats"
)

func main() {
	pilot := func(rob int) core.Space {
		cfg := config.Default()
		cfg.NumCPUs = 8
		cfg.Processor = config.OOOProc
		cfg.OOO.ROBEntries = rob
		e := core.Experiment{
			Label:        fmt.Sprintf("%d-entry ROB", rob),
			Config:       cfg,
			Workload:     "oltp",
			WorkloadSeed: 3,
			WarmupTxns:   200,
			MeasureTxns:  150,
			Runs:         6, // a small pilot
			SeedBase:     uint64(rob),
		}
		sp, err := e.RunSpace()
		if err != nil {
			log.Fatal(err)
		}
		return sp
	}

	a, b := pilot(32), pilot(64)
	sa, sb := a.Summary(), b.Summary()
	fmt.Printf("pilot %s: mean %.0f, CoV %.2f%%\n", a.Label, sa.Mean, sa.CoV)
	fmt.Printf("pilot %s: mean %.0f, CoV %.2f%%\n", b.Label, sb.Mean, sb.CoV)

	// §5.1.1: runs needed to bound the mean's relative error.
	for _, relErr := range []float64{0.04, 0.02, 0.01} {
		n := stats.SampleSizeRelErr(sa.CoV/100, relErr, 0.95)
		fmt.Printf("to estimate the mean within ±%.0f%% at 95%%: %d runs\n", relErr*100, n)
	}

	// §5.1.2: runs needed to separate the two configurations.
	plan := core.PlanRuns(a, b, 0.04, 0.05)
	fmt.Printf("\nto conclude which ROB wins at alpha = 0.05: ~%d runs per configuration\n", plan.ByHypothesis)

	// The hypothesis is fixed before the pilot runs: the larger ROB is
	// faster, so H1 is mean(32-entry) > mean(64-entry).
	tt, err := stats.TTest(a.Values, b.Values, stats.Greater)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pilot-only t-test: t = %.2f (df %.0f), one-sided p = %.3f", tt.Statistic, tt.DF, tt.P)
	if tt.Reject(0.05) {
		fmt.Println("  -> already significant")
	} else {
		fmt.Println("  -> NOT significant yet; gather the runs computed above")
	}
}
