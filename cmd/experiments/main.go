// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-j N] [-list] <experiment>... | all
//
// Each experiment prints the same rows/series the paper reports (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results). The full versions keep the paper's
// structure — 16 processors, 20 runs per configuration; -quick scales
// them down for a fast smoke pass.
//
// Stdout carries the tables and nothing else, byte-identical for every
// -j value; progress, timing and "wrote ..." lines go to stderr. The
// run's journal, drain, profilers, manifest and live observability are
// the shared session's (internal/session; the flag table is in the
// README). Captured tables (-csv, -json) are flushed even when an
// experiment fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"varsim/internal/harness"
	"varsim/internal/journal"
	"varsim/internal/report"
	"varsim/internal/sampling"
	"varsim/internal/session"
)

func main() {
	quick := flag.Bool("quick", false, "scaled-down smoke versions of the experiments")
	seed := flag.Uint64("seed", 0xA1A3, "workload identity seed (the shared initial conditions)")
	list := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "also export every table as CSV into this directory")
	jsonOut := flag.String("json", "", "also export every table as JSON to this file")
	heartbeat := flag.Duration("heartbeat", 30*time.Second, "stderr progress-line period (0 disables)")
	relErr := flag.Float64("rel-err", 0, "adaptive/precision target: tolerated relative error of the mean (a fraction: 0.04 = ±4%; 0 = default)")
	budget := flag.Int("budget", 0, "adaptive: run budget per configuration (0 = the fixed-N baseline)")
	sf := session.Register(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] <experiment>... | all\n\nexperiments:\n", os.Args[0])
		for _, e := range harness.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.Name, e.Title)
		}
		fmt.Fprintln(os.Stderr, "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// Resolve the experiment list up front so name typos fail before any
	// simulation runs and the progress model knows the total.
	var todo []harness.Experiment
	for _, name := range args {
		if name == "all" {
			todo = append(todo, harness.Experiments()...)
			continue
		}
		e, ok := harness.Find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", name)
			os.Exit(2)
		}
		todo = append(todo, e)
	}
	names := make([]string, len(todo))
	for i, e := range todo {
		names[i] = e.Name
	}

	s, err := session.Open(sf, session.Options{
		Tool: "experiments", Experiments: names,
		Seed: *seed, Quick: *quick,
		ConfigHash: journal.ConfigHash(harnessConfigFingerprint(*seed, *quick, args)),
		RelErr:     *relErr,
		Heartbeat:  *heartbeat,
		ResumeArgs: " " + strings.Join(args, " "), // the experiment names make the hint a runnable command
		Stderr:     os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var collector *report.Collector
	if *csvDir != "" || *jsonOut != "" {
		collector = report.NewCollector()
	}
	h := harness.New(harness.Options{
		Out: os.Stdout, Seed: *seed, Quick: *quick, Workers: sf.Workers, Report: collector,
		Resilience: s.Resilience, Adaptive: sampling.Target{RelErr: *relErr, MaxRuns: *budget},
	})
	for _, e := range todo {
		if !s.Run(e.Name, func() error { return h.RunOne(e) }) {
			break
		}
	}

	// Tables captured so far are worth flushing whatever happened above.
	if *csvDir != "" {
		files, err := collector.WriteCSVDir(*csvDir)
		if s.Check("csv export", err) {
			s.Logf("wrote %d CSV files to %s", len(files), *csvDir)
		}
	}
	if *jsonOut != "" {
		if s.Check("json export", writeJSON(collector, *jsonOut)) {
			s.Logf("wrote JSON tables to %s", *jsonOut)
		}
	}
	os.Exit(s.Close())
}

func writeJSON(c *report.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// harnessConfigFingerprint is the hashable identity of a harness run:
// what was asked for, at which scale, from which shared seed.
func harnessConfigFingerprint(seed uint64, quick bool, args []string) any {
	return struct {
		Seed  uint64   `json:"seed"`
		Quick bool     `json:"quick"`
		Args  []string `json:"args"`
	}{seed, quick, args}
}
