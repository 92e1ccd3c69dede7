// Checkpointstudy demonstrates time variability (§4.3, §5.2): the
// measured performance of a multi-threaded workload depends strongly on
// which point of its lifetime the simulation starts from, and ANOVA
// decides whether samples must span multiple starting points.
package main

import (
	"fmt"
	"log"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/stats"
)

func main() {
	cfg := config.Default()
	cfg.NumCPUs = 8

	for _, wl := range []struct {
		name    string
		measure int64
		note    string
	}{
		{"oltp", 150, "database growth raises cost; flush storms punctuate it"},
		{"specjbb", 400, "JIT warm-up makes later checkpoints faster"},
	} {
		e := core.Experiment{
			Label:        wl.name,
			Config:       cfg,
			Workload:     wl.name,
			WorkloadSeed: 11,
			MeasureTxns:  wl.measure,
			Runs:         5,
			SeedBase:     21,
		}
		checkpoints := []int64{500, 1500, 3000, 4500, 6000}
		spaces, err := e.TimeSample(checkpoints)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s (%s) ---\n", wl.name, wl.note)
		var means []float64
		for i, sp := range spaces {
			s := sp.Summary()
			means = append(means, s.Mean)
			fmt.Printf("checkpoint after %5d txns: mean %.0f cycles/txn (±%.0f over %d runs)\n",
				checkpoints[i], s.Mean, s.StdDev, s.N)
		}
		overall := stats.Summarize(means)
		fmt.Printf("between-checkpoint spread: %.1f%% of mean\n", overall.RangePct)

		anova, err := core.ANOVAOverCheckpoints(spaces)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ANOVA: F(%.0f,%.0f) = %.2f, p = %.2g\n",
			anova.DFBetween, anova.DFWithin, anova.F, anova.P)
		if anova.Significant(0.05) {
			fmt.Println("=> time variability significant: sample runs from MULTIPLE starting points")
		} else {
			fmt.Println("=> a single starting point suffices for this workload")
		}
		fmt.Println()
	}
}
