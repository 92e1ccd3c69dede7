// Command varsim runs a single simulation (or a multi-run space) of one
// workload on one configuration and prints the measurement — the
// low-level tool behind the experiment harness.
//
// Usage examples:
//
//	varsim -workload oltp -txns 200 -warmup 500
//	varsim -workload specjbb -cpus 8 -runs 20 -txns 500
//	varsim -workload oltp -proc ooo -rob 32 -runs 10 -txns 200
//	varsim -workload oltp -txns 100 -sched-trace
//	varsim -workload oltp -txns 200 -interval-us 50 -series-csv series.csv
//	varsim -workload oltp -txns 200 -manifest run.json -cpuprofile cpu.pprof
//	varsim -workload barnes -runs 2 -perfetto trace.json
//	varsim -workload oltp -txns 500 -interval-us 50 -http 127.0.0.1:8080
//	varsim -workload oltp -runs 20 -txns 200 -j 4
//	varsim -workload oltp -runs 20 -txns 200 -journal out/
//	varsim -resume out/
//	varsim -workload oltp -runs 10 -txns 200 -digest-us 50 -journal out/
//	varsim diff -A out/ -run-a 0 -run-b 3
//	varsim precision -journal out/ -rel-err 0.04
//	varsim -workload oltp -runs 20 -txns 200 -adaptive -rel-err 0.04
//
// -adaptive schedules the perturbed runs in rounds and stops as soon
// as the confidence interval meets the -rel-err/-confidence target
// (-budget caps the total); the space report is followed by the
// achieved-vs-requested table and the runs saved against the fixed -runs
// baseline. Decisions are journaled, so an interrupted adaptive run
// -resumes with the exact same stop choices (docs/SAMPLING.md).
//
// Every run varsim prints is a run of the space it reports: one
// BranchPlan of -runs perturbed runs from one checkpoint, and each
// capture is something that plan records in every run. -sched-trace and
// -lock-report print run 0's dispatches and lock table from its event
// trace, and -interval-us samples every run's counters and prints run
// 0's per-interval sparklines (-series-csv writes that series). A plan
// that traces or samples is re-run under -resume: events and series are
// not journaled.
//
// -digest-us records a cheap per-component state digest every N
// simulated microseconds inside each run and, with two or more runs,
// prints the run 0 vs run 1 diff: the digest interval within which they
// fork and the metric deltas that followed. 'varsim diff' does the same
// for any two runs journaled with -digest-us (see docs/OBSERVABILITY.md).
//
// 'varsim precision' prints the achieved-vs-requested precision table
// from a journal directory (written by -journal), in run-index order,
// so it is byte-identical at any -j. With -http, /precision and the
// dashboard's convergence panel stream the table live as runs settle.
//
// Stdout carries the measurement and nothing else, byte-identical for
// every -j value; "written to" notices and timing go to stderr. The
// run's journal, drain, profilers, manifest and live observability are
// the shared session's (internal/session; the flag table is in the
// README). What is varsim's own: -journal also saves the experiment
// spec, so -resume needs no other flag and prints the same bytes an
// uninterrupted run would (docs/RESILIENCE.md). Flags that cannot run
// together, and an experiment that cannot run at all, exit 2 before the
// session opens, so a refused -journal leaves no spec behind.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/digest"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/metrics"
	"varsim/internal/plot"
	"varsim/internal/report"
	"varsim/internal/sampling"
	"varsim/internal/session"
	"varsim/internal/trace"
	"varsim/internal/traceviz"
	"varsim/internal/workloads"
)

// specFile is the experiment definition saved next to the journal so
// -resume can rebuild the run without repeating the original flags.
const specFile = "spec.json"

// spec is what varsim runs, as saved in specFile: the experiment, the
// digest cadence of its runs, and the target when its space is
// adaptive. The fields after the experiment serialize after its own,
// so the file reads as the experiment's JSON with "digest_interval_ns"
// and "adaptive" appended.
type spec struct {
	core.Experiment
	// DigestIntervalNS, when positive, records an interval state digest
	// every DigestIntervalNS of simulated time in each run (-digest-us).
	// It rides in the spec so a -resume replays the digests it
	// journaled, at the cadence it journaled them.
	DigestIntervalNS int64 `json:"digest_interval_ns,omitempty"`
	// Adaptive carries the target of an adaptive run (AdaptiveSpace:
	// under one, Runs is the fixed-N baseline the runs-saved accounting
	// compares against and the target's stopping rule decides the
	// actual spend). It rides in the spec so a -resume replays the same
	// stopping rule — and the same journaled decisions — the
	// interrupted run used.
	Adaptive *sampling.Target `json:"adaptive,omitempty"`
}

// runCfg carries the non-experiment knobs into run(); what to simulate
// is the spec's alone, which under -resume is the saved one.
type runCfg struct {
	schedTr, lockRep bool
	intervalNS       int64
	seriesCSV        string
	perfetto         string
}

func main() {
	// Verbs come before flags: "varsim diff ..." dispatches to the
	// digest-diff tool, "varsim precision ..." to the journal precision
	// replay, everything else is the classic flag interface.
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		fail(runDiff(os.Args[2:]))
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "precision" {
		fail(runPrecision(os.Args[2:]))
		return
	}
	var (
		wlName  = flag.String("workload", "oltp", "workload: "+strings.Join(workloads.Names(), ", "))
		cpus    = flag.Int("cpus", 16, "number of processors")
		txns    = flag.Int64("txns", 200, "transactions to measure")
		warmup  = flag.Int64("warmup", 500, "transactions to run before measuring")
		runs    = flag.Int("runs", 1, "perturbed runs branched from the warmed checkpoint")
		seed    = flag.Uint64("seed", 1, "workload identity seed")
		pseed   = flag.Uint64("perturb-seed", 1, "perturbation seed base")
		perturb = flag.Int64("perturb", 4, "max perturbation per L2 miss (ns); 0 disables")
		proc    = flag.String("proc", "simple", "processor model: simple or ooo")
		rob     = flag.Int("rob", 64, "reorder buffer entries (ooo model)")
		assoc   = flag.Int("l2assoc", 4, "L2 associativity (1 = direct-mapped)")
		dram    = flag.Int64("dram", 80, "DRAM access latency (ns)")
		schedTr = flag.Bool("sched-trace", false, "print run 0's scheduling-event trace")
		lockRep = flag.Bool("lock-report", false, "print run 0's lock contention report")

		intervalUS = flag.Int64("interval-us", 0, "sample each run's counters every N simulated microseconds and print run 0's per-interval sparklines")
		digestUS   = flag.Int64("digest-us", 0, "record an interval state digest every N simulated microseconds in each run and, with two or more runs, print the run 0 vs run 1 diff (with -journal, digests persist for 'varsim diff')")
		seriesCSV  = flag.String("series-csv", "", "write run 0's metric time series (sampled by -interval-us) as CSV to this file")
		perfetto   = flag.String("perfetto", "", "write a Chrome Trace Event / Perfetto JSON trace of the perturbed runs to this file (load it in ui.perfetto.dev)")

		relErrF  = flag.Float64("rel-err", sampling.DefaultRelErr, "precision target: tolerated relative error of the mean (a fraction: 0.04 = ±4%)")
		confF    = flag.Float64("confidence", sampling.DefaultConfidence, "precision target: confidence level of the interval, in (0,1)")
		adaptive = flag.Bool("adaptive", false, "schedule runs adaptively: stop once the CI meets -rel-err at -confidence (-runs becomes the fixed-N baseline for the runs-saved accounting; see docs/SAMPLING.md)")
		budget   = flag.Int("budget", 0, "adaptive: hard cap on runs per configuration (0 = the sampling default)")
	)
	sf := session.Register(flag.CommandLine)
	flag.Parse()

	cfg := config.Default()
	cfg.NumCPUs = *cpus
	cfg.PerturbMaxNS = *perturb
	cfg.L2.Assoc = *assoc
	cfg.MemSupplyNS = *dram
	switch *proc {
	case "simple":
		cfg.Processor = config.SimpleProc
	case "ooo":
		cfg.Processor = config.OOOProc
		cfg.OOO.ROBEntries = *rob
	default:
		fmt.Fprintf(os.Stderr, "unknown processor model %q\n", *proc)
		os.Exit(2)
	}
	if *intervalUS < 0 || *digestUS < 0 {
		refuse("-interval-us and -digest-us take a positive cadence, or 0 for none")
	}
	// Runs are sampled only under -interval-us, so a series export
	// without it would have nothing to write.
	if *seriesCSV != "" && *intervalUS == 0 {
		refuse("-series-csv needs -interval-us: a run records a metric series only when sampled")
	}

	e := spec{Experiment: core.Experiment{
		Label:        fmt.Sprintf("%s/%s", *wlName, *proc),
		Config:       cfg,
		Workload:     *wlName,
		WorkloadSeed: *seed,
		WarmupTxns:   *warmup,
		MeasureTxns:  *txns,
		Runs:         *runs,
		SeedBase:     *pseed,
	}, DigestIntervalNS: *digestUS * 1000}
	if *adaptive {
		// The target rides in the experiment spec, so a -resume replays
		// the same stopping rule and the journaled barrier decisions.
		e.Adaptive = &sampling.Target{RelErr: *relErrF, Confidence: *confF, MaxRuns: *budget}
	}
	// -resume rebuilds the experiment from the spec saved beside the
	// journal: the spec pins everything that changes the bytes.
	if sf.Resume != "" {
		var err error
		e, err = loadSpec(filepath.Join(sf.Resume, specFile))
		fail(err)
	}
	// What cannot run is refused before the session opens, so a
	// journal directory gets no spec for a run that never starts. An
	// adaptive space schedules its own runs, none of them traced,
	// sampled or digested; samples and digests ride one tick, so they
	// share its cadence.
	rc := runCfg{
		schedTr: *schedTr, lockRep: *lockRep,
		intervalNS: *intervalUS * 1000, seriesCSV: *seriesCSV, perfetto: *perfetto,
	}
	if e.Adaptive != nil && (rc.schedTr || rc.lockRep || rc.intervalNS > 0 || rc.perfetto != "" || e.DigestIntervalNS > 0) {
		refuse("-adaptive does not combine with -sched-trace, -lock-report, -interval-us, -perfetto or -digest-us")
	}
	if rc.intervalNS > 0 && e.DigestIntervalNS > 0 && rc.intervalNS != e.DigestIntervalNS {
		refuse("-interval-us and -digest-us ride one tick: give them the same cadence")
	}
	if err := e.Validate(); err != nil {
		refuse(err.Error())
	}
	e.Workers = sf.Workers // width never changes the bytes

	s, err := session.Open(sf, session.Options{
		Tool: "varsim", Experiments: []string{e.Label},
		Seed: e.WorkloadSeed, ConfigHash: journal.ConfigHash(e.Config),
		RelErr: *relErrF, Confidence: *confF,
		Stderr: os.Stderr,
	})
	fail(err)
	e.Resilience = s.Resilience
	s.Run(e.Label, func() error {
		// The spec must be beside the journal before the first run can
		// be journaled, or a crash leaves a journal nothing can resume.
		if sf.Journal != "" && sf.Resume == "" {
			if err := saveSpec(filepath.Join(sf.Journal, specFile), e); err != nil {
				return err
			}
		}
		return run(e, rc)
	})
	os.Exit(s.Close())
}

// saveSpec writes the spec as indented JSON; the Resilience field is
// excluded by its json:"-" tag, so the spec is a pure description of
// what to simulate.
func saveSpec(path string, e spec) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadSpec reads a spec saved by saveSpec.
func loadSpec(path string) (spec, error) {
	var e spec
	b, err := os.ReadFile(path)
	if err != nil {
		return e, fmt.Errorf("resume: %w (was this directory written by -journal?)", err)
	}
	if err := json.Unmarshal(b, &e); err != nil {
		return e, fmt.Errorf("resume: bad spec %s: %w", path, err)
	}
	return e, nil
}

// run executes the spec and returns instead of exiting, so main can
// finalize profiles and the manifest on every path.
func run(e spec, rc runCfg) error {
	// Adaptive scheduling replaces the fixed-N branch entirely: rounds
	// run until the CI meets the target, every decision is journaled,
	// and a resume whose journal covers the schedule replays it without
	// preparing the machine (an arm builds its checkpoint lazily).
	if e.Adaptive != nil {
		sp, arm, runErr := e.AdaptiveSpace(*e.Adaptive)
		var inc *fleet.Incomplete
		if runErr != nil && !errors.As(runErr, &inc) {
			return runErr
		}
		rep := sampling.Report{Target: e.Adaptive.Normalize(), Arms: []sampling.Arm{arm}}
		rep.Finalize()
		report.WriteSpace(os.Stdout, sp)
		report.WriteSampling(os.Stdout, rep)
		return runErr
	}

	// One plan whatever is captured: digests at the spec's cadence,
	// every run's event trace for the trace views and the Perfetto
	// export, every run's series under -interval-us. The checkpoint is
	// prepared only if some run must execute, so a resume whose journal
	// covers an uncaptured space replays it without the warmup.
	plan := e.BranchPlan()
	plan.DigestIntervalNS = e.DigestIntervalNS
	plan.Trace = rc.schedTr || rc.lockRep || rc.perfetto != ""
	plan.SampleIntervalNS = rc.intervalNS
	b, err := e.Branch(plan)
	sp := b.Space()
	var inc *fleet.Incomplete
	if errors.As(err, &inc) {
		// A graceful drain: render the partial space (marked
		// INCOMPLETE) and hand the drain marker back to main for
		// the resume hint and exit status.
		report.WriteSpace(os.Stdout, sp)
		return err
	}
	if err != nil {
		return err
	}
	if rc.perfetto != "" {
		runs := make([]traceviz.Run, len(b.Runs))
		for i, r := range b.Runs {
			runs[i] = traceviz.Run{
				Name:    fmt.Sprintf("%s run %d", e.Label, i),
				Events:  r.Events,
				NumCPUs: e.Config.NumCPUs,
			}
			// Flag each run's fork from run 0 inside its own trace.
			if i > 0 && e.DigestIntervalNS > 0 {
				if d := digest.Diff(b.Runs[0].Digests, r.Digests); d.Diverged {
					runs[i].Marks = []traceviz.Mark{{TimeNS: d.TimeNS, Name: "diverged: " + forkName(d)}}
				}
			}
		}
		if err := traceviz.WriteFile(rc.perfetto, runs...); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "Perfetto trace (%d runs) written to %s — open it at https://ui.perfetto.dev\n",
			len(runs), rc.perfetto)
	}
	// Run 0's captures, then the space they belong to.
	run0 := b.Runs[0]
	if rc.schedTr {
		fmt.Println("run 0 dispatches:")
		for _, ev := range trace.Dispatches(run0.Events) {
			fmt.Printf("%12d ns  cpu%-3d thread %d\n", ev.TimeNS, ev.CPU, ev.Thread)
		}
		fmt.Println()
	}
	if rc.lockRep {
		fmt.Println("run 0 locks:")
		fmt.Print(trace.FormatLockReport(trace.LockReport(run0.Events), 20))
		fmt.Println()
	}
	if rc.intervalNS > 0 {
		printSeries(*run0.Series)
		if rc.seriesCSV != "" {
			if err := writeSeriesCSV(rc.seriesCSV, *run0.Series); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "metric series of run 0 (CSV) written to %s\n", rc.seriesCSV)
		}
	}
	report.WriteSpace(os.Stdout, sp)
	if e.DigestIntervalNS > 0 && len(b.Runs) >= 2 {
		fmt.Println()
		run1 := b.Runs[1]
		if err := printDiff("run 0", "run 1", run0.Digests, run1.Digests, run0.Result, run1.Result); err != nil {
			return err
		}
	}
	return nil
}

// forkName names what forked in d: its components joined by "+", or
// "length" when only the streams' lengths differ.
func forkName(d digest.Divergence) string {
	if len(d.Components) == 0 {
		return "length"
	}
	names := make([]string, len(d.Components))
	for i, c := range d.Components {
		names[i] = c.String()
	}
	return strings.Join(names, "+")
}

// printSeries renders run 0's headline per-interval series as
// sparklines: IPC, L2 miss rate, bus traffic and lock contention — the
// live form of the paper's Figures 2–4.
func printSeries(ts metrics.TimeSeries) {
	if ts.Len() == 0 {
		return
	}
	fmt.Printf("run 0 per-interval series (%d samples, %d ns cadence):\n", ts.Len(), ts.IntervalNS)
	const width = 60
	fmt.Println(plot.SparklineLabeled("ipc", ts.PerCycle("machine.instrs"), width))
	fmt.Println(plot.SparklineLabeled("l2_miss_rate", ts.Ratio("mem.l2.misses", "mem.l2.accesses"), width))
	dtUS := ts.DeltaTime()
	for i := range dtUS {
		dtUS[i] /= 1000
	}
	fmt.Println(plot.SparklineLabeled("bus_req_per_us", metrics.Div(ts.Delta("bus.requests"), dtUS), width))
	fmt.Println(plot.SparklineLabeled("lock_contention", ts.Ratio("os.lock_contentions", "os.lock_acquisitions"), width))
	fmt.Println()
}

// writeSeriesCSV writes ts to path as CSV.
func writeSeriesCSV(path string, ts metrics.TimeSeries) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ts.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// refuse reports a run that cannot start and exits 2, before any
// session opens.
func refuse(msg string) {
	fmt.Fprintln(os.Stderr, "varsim:", msg)
	os.Exit(2)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
