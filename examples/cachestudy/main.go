// Cachestudy reproduces the paper's central result (Experiment 1, §4.1)
// at example scale: comparing L2 associativities with single simulations
// reaches the wrong conclusion a substantial fraction of the time, while
// the multi-run methodology quantifies and controls that risk.
package main

import (
	"fmt"
	"log"

	"varsim/internal/config"
	"varsim/internal/core"
)

func main() {
	spaces := map[int]core.Space{}
	for _, assoc := range []int{1, 2, 4} {
		cfg := config.Default()
		cfg.NumCPUs = 8
		cfg.L2.Assoc = assoc

		e := core.Experiment{
			Label:        fmt.Sprintf("%d-way", assoc),
			Config:       cfg,
			Workload:     "oltp",
			WorkloadSeed: 7, // identical initial conditions for every config
			WarmupTxns:   300,
			MeasureTxns:  200,
			Runs:         12,
			SeedBase:     uint64(100 + assoc),
		}
		sp, err := e.RunSpace()
		if err != nil {
			log.Fatal(err)
		}
		spaces[assoc] = sp
		s := sp.Summary()
		fmt.Printf("%-6s mean %.0f cycles/txn  [min %.0f, max %.0f]  CoV %.2f%%\n",
			e.Label, s.Mean, s.Min, s.Max, s.CoV)
	}

	fmt.Println()
	pairs := [][2]int{{1, 2}, {1, 4}, {2, 4}}
	for _, p := range pairs {
		cmp, err := core.Compare(spaces[p[0]], spaces[p[1]], 0.95)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d-way vs %d-way: mean difference %.1f%% in favour of %s\n",
			p[0], p[1], cmp.MeanDiffPct, cmp.Faster.Label)
		fmt.Printf("  single-simulation wrong conclusion ratio: %.0f%%\n", cmp.WCRPct)
		if cmp.CIsOverlap {
			fmt.Printf("  95%% confidence intervals overlap — do not conclude from these samples\n")
		} else {
			fmt.Printf("  95%% confidence intervals disjoint — wrong-conclusion probability < 5%%\n")
		}
		fmt.Printf("  hypothesis test: %s\n", cmp.Conclusion(0.05))
	}
}
