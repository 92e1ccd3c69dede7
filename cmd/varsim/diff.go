package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/digest"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/report"
)

// runDiff implements the "diff" verb: locate the first interval at
// which two perturbed runs' state digests fork, name the component
// that forked first, and show the final-metric deltas that followed.
//
// Journal mode reads runs that were journaled with -digest-us:
//
//	varsim diff -A out/                 # run 0 vs run 1 of one journal
//	varsim diff -A out/ -run-a 0 -run-b 5
//	varsim diff -A out1/ -B out2/       # across two journals
//
// Live mode simulates the two runs on the spot from flags (same
// defaults as the main command):
//
//	varsim diff -workload oltp -txns 200 -run-b 3
func runDiff(args []string) error {
	fs := flag.NewFlagSet("varsim diff", flag.ExitOnError)
	var (
		dirA = fs.String("A", "", "journal directory of run A (written by -journal with -digest-us); empty = live mode")
		dirB = fs.String("B", "", "journal directory of run B (defaults to -A)")
		runA = fs.Int("run-a", 0, "run index of A within its space")
		runB = fs.Int("run-b", 1, "run index of B within its space")

		wlName   = fs.String("workload", "oltp", "live mode: workload to simulate")
		cpus     = fs.Int("cpus", 16, "live mode: number of processors")
		txns     = fs.Int64("txns", 200, "live mode: transactions to measure")
		warmup   = fs.Int64("warmup", 500, "live mode: transactions to run before measuring")
		seed     = fs.Uint64("seed", 1, "live mode: workload identity seed")
		pseed    = fs.Uint64("perturb-seed", 1, "live mode: perturbation seed base")
		perturb  = fs.Int64("perturb", 4, "live mode: max perturbation per L2 miss (ns)")
		digestUS = fs.Int64("digest-us", 50, "live mode: digest cadence in simulated microseconds")
		workers  = fs.Int("j", runtime.GOMAXPROCS(0), "live mode: fleet workers (output identical for any value)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: varsim diff [-A dir [-B dir]] [-run-a N] [-run-b N] [live-mode flags]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runA < 0 || *runB < 0 {
		return fmt.Errorf("diff: run indices must be non-negative (got %d, %d)", *runA, *runB)
	}
	if *dirA == "" && *dirB != "" {
		return fmt.Errorf("diff: -B without -A; name the first journal with -A")
	}

	if *dirA != "" {
		bdir := *dirB
		if bdir == "" {
			bdir = *dirA
		}
		if bdir == *dirA && *runA == *runB {
			return fmt.Errorf("diff: comparing run %d of %s with itself", *runA, *dirA)
		}
		sa, ra, err := loadRunDigest(*dirA, *runA)
		if err != nil {
			return err
		}
		sb, rb, err := loadRunDigest(bdir, *runB)
		if err != nil {
			return err
		}
		nameA := fmt.Sprintf("%s run %d", strings.TrimRight(*dirA, "/"), *runA)
		nameB := fmt.Sprintf("%s run %d", strings.TrimRight(bdir, "/"), *runB)
		return printDiff(nameA, nameB, sa, sb, ra, rb)
	}

	// Live mode: warm up once, branch enough perturbed runs to cover
	// both indices, then diff. The other runs are not wasted — they
	// feed the space-level attribution printed after the pairwise diff.
	cfg := config.Default()
	cfg.NumCPUs = *cpus
	cfg.PerturbMaxNS = *perturb
	n := *runA + 1
	if *runB >= n {
		n = *runB + 1
	}
	if n < 2 {
		n = 2
	}
	e := core.Experiment{
		Label:            fmt.Sprintf("diff/%s", *wlName),
		Config:           cfg,
		Workload:         *wlName,
		WorkloadSeed:     *seed,
		WarmupTxns:       *warmup,
		MeasureTxns:      *txns,
		Runs:             n,
		SeedBase:         *pseed,
		Workers:          *workers,
		DigestIntervalNS: *digestUS * 1000,
	}
	if e.DigestIntervalNS <= 0 {
		return fmt.Errorf("diff: -digest-us must be positive")
	}
	sp, sd, err := e.RunSpaceDigests()
	if err != nil {
		return err
	}
	if err := printDiff(fmt.Sprintf("run %d", *runA), fmt.Sprintf("run %d", *runB),
		sd.Series[*runA], sd.Series[*runB], sp.Results[*runA], sp.Results[*runB]); err != nil {
		return err
	}
	if n > 2 {
		fmt.Println()
		report.WriteAttribution(os.Stdout, sd.Attribution(sp))
	}
	return nil
}

// loadRunDigest reads run idx's digest stream and result from a
// journal directory, read-only — a live varsim writing the journal is
// never disturbed.
func loadRunDigest(dir string, idx int) (digest.Series, machine.Result, error) {
	var res machine.Result
	spec, err := loadSpec(filepath.Join(dir, specFile))
	if err != nil {
		return digest.Series{}, res, err
	}
	if idx >= spec.Runs {
		return digest.Series{}, res, fmt.Errorf("diff: %s has %d runs, no run %d", dir, spec.Runs, idx)
	}
	lr, err := journal.Load(filepath.Join(dir, journal.FileName))
	if err != nil {
		return digest.Series{}, res, err
	}
	cache := journal.NewCache(lr.Records)
	key := spec.RunKey(idx)
	drec, ok := cache.Digest(key)
	if !ok {
		return digest.Series{}, res, fmt.Errorf(
			"diff: no digest record for run %d in %s (journal the run with -digest-us to record digests)", idx, dir)
	}
	s, err := journal.DecodeDigest(drec)
	if err != nil {
		return digest.Series{}, res, err
	}
	rec, ok := cache.Get(key)
	if !ok {
		return s, res, fmt.Errorf("diff: run %d of %s has a digest but no settled result (still running? resume it first)", idx, dir)
	}
	if err := json.Unmarshal(rec.Result, &res); err != nil {
		return s, res, fmt.Errorf("diff: run %d of %s: %w", idx, dir, err)
	}
	return s, res, nil
}

// printDiff renders the pairwise comparison: divergence point, the two
// runs' results, and the metric deltas.
func printDiff(nameA, nameB string, sa, sb digest.Series, ra, rb machine.Result) error {
	if sa.IntervalNS != sb.IntervalNS {
		return fmt.Errorf("diff: digest cadences differ (%d ns vs %d ns); re-run one side to match", sa.IntervalNS, sb.IntervalNS)
	}
	if sa.Len() == 0 || sb.Len() == 0 {
		return fmt.Errorf("diff: empty digest stream (A has %d samples, B has %d)", sa.Len(), sb.Len())
	}
	report.WriteDivergence(os.Stdout, nameA, nameB, digest.Diff(sa, sb))
	fmt.Printf("%s: ", nameA)
	printResult(ra)
	fmt.Printf("%s: ", nameB)
	printResult(rb)
	report.WriteResultDelta(os.Stdout, ra, rb)
	return nil
}
