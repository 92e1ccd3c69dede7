// Quickstart: simulate the paper's target system once, then show why a
// single simulation is not enough — branch twenty perturbed runs from
// the same checkpoint and look at the spread.
package main

import (
	"fmt"
	"log"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/machine"
	"varsim/internal/stats"
	"varsim/internal/workloads"
)

func main() {
	// The paper's 16-node E10000-like target with 0-4 ns perturbation on
	// L2 misses. (Scaled to 8 CPUs here so the example runs in seconds.)
	cfg := config.Default()
	cfg.NumCPUs = 8

	// A DB2/TPC-C-like OLTP workload: 8 database threads per processor,
	// five transaction classes, district locks, a log latch, disks.
	wl, err := workloads.New("oltp", cfg, 42)
	if err != nil {
		log.Fatal(err)
	}

	m, err := machine.New(cfg, wl, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Warm the system (database buffer pool, caches), then measure one
	// 200-transaction run — what a single-simulation study would report.
	if _, err := m.Run(300); err != nil {
		log.Fatal(err)
	}
	single := m.Snapshot()
	single.SetPerturbSeed(12345)
	res, err := single.Run(200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single simulation: %.0f cycles/transaction (%d L2 misses, %d context switches)\n",
		res.CPT, res.L2Misses, res.CtxSwitches)

	// The methodology: branch many runs from the same checkpoint, each
	// with a unique perturbation seed, and look at the space. Workers is
	// the fleet width (-1 = one worker per host CPU); the space is
	// byte-identical for any width.
	runs, err := core.Branch(m, core.BranchPlan{Label: "oltp/8cpu", N: 20, MeasureTxns: 200, SeedBase: 99, Workers: -1})
	if err != nil {
		log.Fatal(err)
	}
	space := runs.Space()
	s := space.Summary()
	fmt.Printf("20 perturbed runs:  mean %.0f  sigma %.0f  min %.0f  max %.0f\n",
		s.Mean, s.StdDev, s.Min, s.Max)
	fmt.Printf("coefficient of variation %.2f%%, range of variability %.2f%%\n", s.CoV, s.RangePct)

	ci, err := stats.CI(space.Values, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("95%% confidence interval for the true mean: [%.0f, %.0f]\n", ci.Lo, ci.Hi)
	fmt.Println("\nthe single simulation above was just one draw from that range —")
	fmt.Println("comparing two such draws is how wrong conclusions happen (see examples/cachestudy).")
}
