package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"varsim/internal/digest"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/report"
)

// runDiff implements the "diff" verb: locate the digest interval within
// which two journaled runs' state digests fork, name the components
// that had forked by its closing tick, and show the final-metric deltas
// that followed. It reads runs journaled with -digest-us:
//
//	varsim diff -A out/                 # run 0 vs run 1 of one journal
//	varsim diff -A out/ -run-a 0 -run-b 5
//	varsim diff -A out1/ -B out2/       # across two journals
//
// The main command with -digest-us and two or more runs prints the run
// 0 vs run 1 diff of the space it just simulated.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("varsim diff", flag.ExitOnError)
	var (
		dirA = fs.String("A", "", "journal directory of run A (written by -journal with -digest-us)")
		dirB = fs.String("B", "", "journal directory of run B (defaults to -A)")
		runA = fs.Int("run-a", 0, "run index of A within its space")
		runB = fs.Int("run-b", 1, "run index of B within its space")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: varsim diff -A dir [-B dir] [-run-a N] [-run-b N]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dirA == "" {
		return fmt.Errorf("diff: name a journal with -A; record one with varsim -digest-us N -journal DIR")
	}
	if *runA < 0 || *runB < 0 {
		return fmt.Errorf("diff: run indices must be non-negative (got %d, %d)", *runA, *runB)
	}
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

// printDiff renders the pairwise comparison: divergence interval, the
// two runs' results, and the metric deltas.
func printDiff(nameA, nameB string, sa, sb digest.Series, ra, rb machine.Result) error {
	if sa.IntervalNS != sb.IntervalNS {
		return fmt.Errorf("diff: digest cadences differ (%d ns vs %d ns); re-run one side to match", sa.IntervalNS, sb.IntervalNS)
	}
	report.WriteDivergence(os.Stdout, nameA, nameB, digest.Diff(sa, sb), sa.IntervalNS)
	fmt.Printf("%s: ", nameA)
	printResult(ra)
	fmt.Printf("%s: ", nameB)
	printResult(rb)
	report.WriteResultDelta(os.Stdout, ra, rb)
	return nil
}
