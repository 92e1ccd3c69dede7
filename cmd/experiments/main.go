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
// -j sets the worker-fleet width for each experiment's independent
// simulations (perturbed runs, per-configuration spaces); the default
// is one worker per host CPU. Output is byte-identical for every -j
// value — results merge by run index, never completion order (see
// docs/PARALLELISM.md). -j 1 forces the sequential path.
//
// Observability: -manifest writes a run-provenance JSON (seeds, config
// hash, toolchain, per-experiment wall clock and simulated-cycle
// throughput), -heartbeat prints periodic progress to stderr, -http
// serves live progress (/status), Prometheus metrics (/metrics), the
// fleet throughput series (/series), pprof and an HTML dashboard, and
// -cpuprofile/-memprofile/-trace enable Go's profilers. Captured tables
// and the manifest are flushed even when an experiment fails.
//
// Crash safety: -journal writes an fsync'd result journal into a
// directory as each simulation run settles; after a crash or SIGINT
// drain, re-running the same command with -resume replays journaled
// runs and executes only the rest. -job-timeout and -retries bound
// each run attempt; retried runs reuse their original derived seed
// (docs/RESILIENCE.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"varsim/internal/core"
	"varsim/internal/fleet"
	"varsim/internal/harness"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/obs"
	"varsim/internal/precision"
	"varsim/internal/profile"
	"varsim/internal/report"
	"varsim/internal/sampling"
)

func main() {
	quick := flag.Bool("quick", false, "scaled-down smoke versions of the experiments")
	seed := flag.Uint64("seed", 0xA1A3, "workload identity seed (the shared initial conditions)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "fleet workers for each experiment's independent runs (1 = sequential; output is identical for any value)")
	list := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "also export every table as CSV into this directory")
	jsonOut := flag.String("json", "", "also export every table as JSON to this file")
	manifestP := flag.String("manifest", "", "write a run-provenance manifest (JSON) to this file")
	heartbeat := flag.Duration("heartbeat", 30*time.Second, "stderr progress-line period (0 disables)")
	httpAddr := flag.String("http", "", "serve live observability on this address (/metrics, /status, /series, /debug/pprof, dashboard at /)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file")
	traceProf := flag.String("trace", "", "write a runtime execution trace to this file")
	journalDir := flag.String("journal", "", "write a crash-safe result journal into this directory as runs settle")
	resumeDir := flag.String("resume", "", "resume from a journal directory (re-run the same experiments; journaled runs replay as cache hits)")
	jobTimeout := flag.Duration("job-timeout", 0, "wall-clock timeout per run attempt (0 = unbounded)")
	retries := flag.Int("retries", 0, "extra attempts for a failed run (the retry reuses the run's original derived seed)")
	adaptive := flag.Bool("adaptive", false, "override the sampling experiment's stopping rule with -rel-err/-budget (the experiment runs adaptively either way; see docs/SAMPLING.md)")
	relErr := flag.Float64("rel-err", 0, "adaptive/precision target: tolerated relative error of the mean (a fraction: 0.04 = ±4%; 0 = default)")
	budget := flag.Int("budget", 0, "adaptive: run budget per configuration (0 = the fixed-N baseline)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-quick] [-seed N] <experiment>... | all\n\nexperiments:\n", os.Args[0])
		for _, e := range harness.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.Name, e.Title)
		}
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
	// simulation runs and the heartbeat knows the total.
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

	stopProf, err := profile.Start(*cpuProf, *traceProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Crash-safety plumbing: open (resume) or create the result journal
	// and arm the graceful drain — first SIGINT/SIGTERM finishes
	// in-flight runs and flushes the journal, a second aborts.
	var jw *journal.Writer
	var jc *journal.Cache
	switch {
	case *resumeDir != "":
		jc, jw, err = journal.OpenDir(*resumeDir, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
	case *journalDir != "":
		if err = os.MkdirAll(*journalDir, 0o777); err == nil {
			jw, err = journal.CreateDir(*journalDir)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "experiments: draining in-flight runs; signal again to abort immediately")
		close(stop)
		<-sigc
		os.Exit(130)
	}()
	resil := core.Resilience{
		Journal:    jw,
		Cache:      jc,
		JobTimeout: *jobTimeout,
		Retries:    *retries,
		Stop:       stop,
	}

	// Precision observatory: every settled run (live or replayed from
	// the journal) feeds the streaming tracker, which backs /precision,
	// the dashboard's convergence panel and the heartbeat's
	// achieved-vs-requested fragment. The tracker fills in host
	// completion order and never writes to stdout, so the printed
	// tables stay byte-identical.
	trk := precision.New(*relErr, precision.DefaultConfidence)
	trk.TrackSampling(sampling.Latest)
	resil.Observe = func(k journal.Key, r machine.Result) {
		trk.Observe(k.Experiment, k.ConfigHash, "cpt", r.CPT)
	}

	var man *report.Manifest
	if *manifestP != "" {
		man = report.NewManifest("experiments", *seed, machine.SimulatedCycles)
		man.Args = os.Args[1:]
		man.Quick = *quick
		man.ConfigHash = report.ConfigHash(harnessConfigFingerprint(*seed, *quick, args))
	}

	// One progress model: a sweep tracker fed by the harness progress
	// callback is what the stderr heartbeat prints and what /status
	// serves.
	names := make([]string, len(todo))
	for i, e := range todo {
		names[i] = e.Name
	}
	tracker := obs.NewFleet(names, machine.SimulatedCycles)
	tracker.TrackJobs(fleet.Read)
	tracker.TrackSampling(sampling.Read)
	if jw != nil || jc != nil {
		tracker.TrackJournal(journal.ReadStats)
	}
	var hb *report.Heartbeat
	if *heartbeat > 0 {
		hb = report.StartHeartbeat(os.Stderr, *heartbeat, func() string {
			line := tracker.Status().Line()
			if p := trk.Summary(); p != "" {
				line += ", " + p
			}
			return line
		})
	}

	// Live observability: the tracker backs /status, and a wall-clock
	// sampler of the process-wide simulated-cycle counter backs /series
	// (and the dashboard's throughput chart). Nothing here runs when
	// -http is unset.
	if *httpAddr != "" {
		pub := obs.NewPublisher()
		srv, err := obs.Serve(*httpAddr, obs.Options{
			Publisher: pub,
			Fleet:     tracker,
			SimCycles: machine.SimulatedCycles,
			Precision: trk,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		stopSampler := obs.StartSimRateSampler(pub, machine.SimulatedCycles, time.Second)
		defer stopSampler()
		fmt.Fprintf(os.Stderr, "observability server on http://%s/\n", srv.Addr())
	}

	var collector *report.Collector
	if *csvDir != "" || *jsonOut != "" {
		collector = report.NewCollector()
	}
	var at *sampling.Target
	if *adaptive || *relErr > 0 || *budget > 0 {
		at = &sampling.Target{RelErr: *relErr, MaxRuns: *budget}
	}
	h := harness.New(harness.Options{
		Out: os.Stdout, Seed: *seed, Quick: *quick, Workers: *workers, Report: collector,
		Resilience: resil, Adaptive: at,
		OnProgress: func(p harness.Progress) {
			if p.Done {
				tracker.Finish(p.Experiment, p.Err)
			} else {
				tracker.Start(p.Experiment)
			}
		},
	})

	// Run the experiments, remembering the first failure instead of
	// exiting on it: tables captured so far, the manifest and any
	// profiles are all worth flushing on the way out. A graceful drain
	// (SIGINT/SIGTERM) is not a failure — the run stops, the journal
	// keeps what settled, and -resume picks up the rest.
	var firstErr error
	drained := false
	for _, e := range todo {
		select {
		case <-stop:
			drained = true
		default:
		}
		if drained {
			break
		}
		start := time.Now()
		simStart := machine.SimulatedCycles()
		runErr := h.RunOne(e)
		wall := time.Since(start)
		simCycles := machine.SimulatedCycles() - simStart
		errMsg := ""
		var inc *fleet.Incomplete
		switch {
		case errors.As(runErr, &inc):
			drained = true
			errMsg = runErr.Error()
			fmt.Fprintf(os.Stderr, "%s: drained with %d/%d runs done\n", e.Name, inc.Done, inc.Total)
		case runErr != nil:
			errMsg = runErr.Error()
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, runErr)
			if firstErr == nil {
				firstErr = runErr
			}
		default:
			fmt.Printf("[%s finished in %v]\n", e.Name, wall.Round(time.Millisecond))
		}
		if man != nil {
			man.AddExperiment(e.Name, wall, simCycles, errMsg)
		}
		if runErr != nil && !drained {
			break
		}
	}

	if hb != nil {
		hb.Stop()
	}
	flush := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if collector != nil {
		if *csvDir != "" {
			files, err := collector.WriteCSVDir(*csvDir)
			flush("csv export", err)
			if err == nil {
				fmt.Printf("wrote %d CSV files to %s\n", len(files), *csvDir)
			}
		}
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err == nil {
				err = collector.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			flush("json export", err)
			if err == nil {
				fmt.Printf("wrote JSON tables to %s\n", *jsonOut)
			}
		}
	}
	flush("profile", stopProf())
	if *memProf != "" {
		flush("heap profile", profile.WriteHeap(*memProf))
	}
	flush("journal", jw.Close())
	if man != nil {
		man.Incomplete = drained
		man.Finish()
		flush("manifest", man.WriteFile(*manifestP))
		if _, err := os.Stat(*manifestP); err == nil {
			fmt.Printf("run manifest written to %s\n", *manifestP)
		}
	}
	if drained {
		dir := *resumeDir
		if dir == "" {
			dir = *journalDir
		}
		if dir != "" {
			fmt.Fprintf(os.Stderr, "experiments: run incomplete; resume with: experiments -resume %s %s\n",
				dir, flagsAndArgs())
		} else {
			fmt.Fprintln(os.Stderr, "experiments: run incomplete; re-run with -journal to make drains resumable")
		}
		os.Exit(1)
	}
	if firstErr != nil {
		os.Exit(1)
	}
}

// flagsAndArgs reprints the experiment names so the resume hint is a
// runnable command.
func flagsAndArgs() string {
	out := ""
	for i, a := range flag.Args() {
		if i > 0 {
			out += " "
		}
		out += a
	}
	return out
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
