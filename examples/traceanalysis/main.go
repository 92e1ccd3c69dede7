// Traceanalysis drills into *why* runs diverge: it branches two traced
// runs from the same checkpoint with different perturbation seeds,
// locates the exact scheduling decision where their execution paths
// split (the paper's Figure 1), and reports the lock-contention and
// thread-schedule structure behind it. It also shows checkpoint recipes:
// persisting a warmed machine as its deterministic-replay inputs.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"varsim/internal/checkpoint"
	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/trace"
)

func main() {
	cfg := config.Default()
	cfg.NumCPUs = 8

	// Persist the warmed checkpoint as a recipe, then rebuild from it —
	// the durable counterpart of Machine.Snapshot.
	exp := core.Experiment{
		Label: "oltp", Config: cfg, Workload: "oltp",
		WorkloadSeed: 21, WarmupTxns: 200, MeasureTxns: 150,
		Runs: 2, SeedBase: 77,
	}
	recipe, err := saveAndLoad(checkpoint.FromExperiment(exp))
	if err != nil {
		log.Fatal(err)
	}
	m, err := recipe.Build() // deterministic replay of the warmup
	if err != nil {
		log.Fatal(err)
	}

	// Branch the experiment's two perturbed runs from the checkpoint,
	// each recording its event trace: the experiment's plan, plus Trace.
	plan := exp.BranchPlan()
	plan.Trace = true
	runs, err := core.Branch(m, plan)
	if err != nil {
		log.Fatal(err)
	}
	a, b := runs.Runs[0].Events, runs.Runs[1].Events

	// Where exactly did 0-4 ns of memory jitter change the course of
	// execution?
	div := trace.CompareDispatches(a, b)
	fmt.Printf("the two runs dispatched identically %d times, then split (run1 at %d ns, run2 at %d ns)\n",
		div.Prefix, div.ATimeNS, div.BTimeNS)
	fmt.Printf("after the split only %.1f%% of dispatch decisions still agree\n\n", 100*div.AgreedAfter)

	// What were the threads fighting over?
	fmt.Println("most contended locks in run 1 (lock 0 is the database log latch):")
	fmt.Print(trace.FormatLockReport(trace.LockReport(a), 6))

	// Who actually got to run?
	timeline := trace.ThreadTimeline(a)
	busiest, most := timeline[0], int64(0)
	for _, th := range timeline {
		if th.RunNS > most {
			busiest, most = th, th.RunNS
		}
	}
	fmt.Printf("\n%d threads were scheduled; the busiest (thread %d) ran %.2f ms across %d dispatches and finished %d transactions\n",
		len(timeline), busiest.Thread, float64(busiest.RunNS)/1e6, busiest.Dispatches, busiest.Txns)
}

// saveAndLoad writes the recipe to a file in a private temporary
// directory, reads it back and removes the directory.
func saveAndLoad(r checkpoint.Recipe) (checkpoint.Recipe, error) {
	dir, err := os.MkdirTemp("", "varsim-traceanalysis-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	recipePath := filepath.Join(dir, "varsim-checkpoint.json")
	if err := checkpoint.SaveFile(recipePath, r); err != nil {
		return r, err
	}
	fmt.Printf("checkpoint recipe saved to %s\n\n", filepath.Base(recipePath))
	return checkpoint.LoadFile(recipePath)
}
