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
// uninterrupted run would (docs/RESILIENCE.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"varsim/internal/checkpoint"
	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/digest"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
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

// runCfg carries the non-experiment knobs into run(); what to simulate
// is the experiment's alone, which under -resume is the saved spec.
type runCfg struct {
	schedTr, lockRep bool
	saveRcp, fromRcp string
	intervalUS       int64
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
		schedTr = flag.Bool("sched-trace", false, "print the scheduling-event trace")
		lockRep = flag.Bool("lock-report", false, "print the lock contention report")
		saveRcp = flag.String("save-recipe", "", "write the warmed checkpoint's recipe to this file")
		fromRcp = flag.String("from-recipe", "", "start from a checkpoint recipe instead of flags")

		intervalUS = flag.Int64("interval-us", 0, "sample the machine's counters every N simulated microseconds and print per-interval sparklines")
		digestUS   = flag.Int64("digest-us", 0, "record an interval state digest every N simulated microseconds in each run and, with two or more runs, print the run 0 vs run 1 diff (with -journal, digests persist for 'varsim diff')")
		seriesCSV  = flag.String("series-csv", "", "write the sampled metric time series of the -interval-us run as CSV to this file")
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
	// A journal's spec names the flags' checkpoint, not a recipe's (its
	// raw perturbation seed and warm-up have no spec field), so a resume
	// would silently rebuild another machine and splice its runs in.
	if *fromRcp != "" && (sf.Journal != "" || sf.Resume != "") {
		fmt.Fprintln(os.Stderr, "varsim: -from-recipe does not combine with -journal or -resume: the journal's spec cannot name the recipe's checkpoint")
		os.Exit(2)
	}
	// Only the -interval-us run is sampled, so a series export without
	// it would have nothing to write.
	if *seriesCSV != "" && *intervalUS <= 0 {
		fmt.Fprintln(os.Stderr, "varsim: -series-csv needs -interval-us: only the sampled run records a metric series")
		os.Exit(2)
	}

	e := core.Experiment{
		Label:            fmt.Sprintf("%s/%s", *wlName, *proc),
		Config:           cfg,
		Workload:         *wlName,
		WorkloadSeed:     *seed,
		WarmupTxns:       *warmup,
		MeasureTxns:      *txns,
		Runs:             *runs,
		SeedBase:         *pseed,
		DigestIntervalNS: *digestUS * 1000,
	}
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
	// An adaptive space schedules its own runs, none of them a recipe's
	// checkpoint, the sampled run, a traced plan or a digested one. The
	// refusal comes before the session opens, so a journal directory
	// gets no spec for a run that never starts.
	if e.Adaptive != nil && (*fromRcp != "" || *saveRcp != "" || *intervalUS > 0 || *perfetto != "" || e.DigestIntervalNS > 0) {
		fmt.Fprintln(os.Stderr, "varsim: -adaptive does not combine with -from-recipe, -save-recipe, -interval-us, -perfetto or -digest-us")
		os.Exit(2)
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
	rc := runCfg{
		schedTr: *schedTr, lockRep: *lockRep,
		saveRcp: *saveRcp, fromRcp: *fromRcp,
		intervalUS: *intervalUS, seriesCSV: *seriesCSV, perfetto: *perfetto,
	}
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

// saveSpec writes the experiment definition as indented JSON; the
// Resilience field is excluded by its json:"-" tag, so the spec is a
// pure description of what to simulate.
func saveSpec(path string, e core.Experiment) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadSpec reads an experiment definition saved by saveSpec.
func loadSpec(path string) (core.Experiment, error) {
	var e core.Experiment
	b, err := os.ReadFile(path)
	if err != nil {
		return e, fmt.Errorf("resume: %w (was this directory written by -journal?)", err)
	}
	if err := json.Unmarshal(b, &e); err != nil {
		return e, fmt.Errorf("resume: bad spec %s: %w", path, err)
	}
	return e, nil
}

// run executes the selected mode and returns instead of exiting, so
// main can finalize profiles and the manifest on every path.
func run(e core.Experiment, rc runCfg) error {
	if rc.schedTr || rc.lockRep {
		m, err := core.NewCheckpoint(e.Config, e.Workload, e.WorkloadSeed, e.SeedBase, 0)
		if err != nil {
			return err
		}
		m.EnableTrace(0)
		res, err := m.Run(e.WarmupTxns + e.MeasureTxns)
		if err != nil {
			return err
		}
		if rc.schedTr {
			for _, ev := range trace.Dispatches(m.Trace().Events()) {
				fmt.Printf("%12d ns  cpu%-3d thread %d\n", ev.TimeNS, ev.CPU, ev.Thread)
			}
		}
		if rc.lockRep {
			fmt.Print(trace.FormatLockReport(trace.LockReport(m.Trace().Events()), 20))
		}
		printResult(res)
		return nil
	}

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

	// The checkpoint is built here only when something besides the
	// branches needs it (a recipe in or out, the sampled run); otherwise
	// Experiment.Branch prepares it on demand, and a resume whose
	// journal already covers every run replays the whole space without
	// it — the warmup itself is skipped, so resuming a finished run is
	// nearly free, -http or not.
	var base *machine.Machine
	if rc.fromRcp != "" {
		rcp, err := checkpoint.LoadFile(rc.fromRcp)
		if err != nil {
			return err
		}
		if base, err = rcp.Build(); err != nil {
			return err
		}
	} else if rc.saveRcp != "" || rc.intervalUS > 0 {
		var err error
		if base, err = e.Prepare(); err != nil {
			return err
		}
	}
	if rc.saveRcp != "" {
		if err := checkpoint.SaveFile(rc.saveRcp, checkpoint.FromExperiment(e)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "checkpoint recipe written to %s\n", rc.saveRcp)
	}
	if rc.intervalUS > 0 {
		res, ts, err := core.SampleRun(base, e.MeasureTxns, e.SeedBase, rc.intervalUS*1000)
		if err != nil {
			return err
		}
		fmt.Printf("sampled run: ")
		printResult(res)
		printSeries(ts)
		if rc.seriesCSV != "" {
			if err := writeSeriesCSV(rc.seriesCSV, ts); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "metric series (CSV) written to %s\n", rc.seriesCSV)
		}
		if e.Runs <= 1 && rc.perfetto == "" {
			return nil
		}
	}

	// One plan whatever is captured: digests at the spec's cadence, the
	// event trace when a Perfetto export is asked for.
	plan := e.BranchPlan()
	plan.Trace = rc.perfetto != ""
	var b core.Branched
	var err error
	if base != nil {
		b, err = core.Branch(base, plan)
	} else {
		b, err = e.Branch(plan)
	}
	sp, sd := b.Space(), b.Digests()
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
	if plan.Trace {
		runs := make([]traceviz.Run, len(b.Runs))
		for i, r := range b.Runs {
			runs[i] = traceviz.Run{
				Name:    fmt.Sprintf("%s run %d", e.Label, i),
				Events:  r.Events,
				NumCPUs: e.Config.NumCPUs,
			}
			// Flag each run's fork from run 0 inside its own trace.
			if i > 0 && len(sd.Series) > i {
				if d := digest.Diff(sd.Series[0], sd.Series[i]); d.Diverged {
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
	report.WriteSpace(os.Stdout, sp)
	if len(sd.Series) >= 2 {
		fmt.Println()
		if err := printDiff("run 0", "run 1", sd.Series[0], sd.Series[1], sp.Results[0], sp.Results[1]); err != nil {
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

// printSeries renders the run's headline per-interval series as
// sparklines: IPC, L2 miss rate, bus traffic and lock contention — the
// live form of the paper's Figures 2–4.
func printSeries(ts metrics.TimeSeries) {
	if ts.Len() == 0 {
		return
	}
	fmt.Printf("\nper-interval series (%d samples, %d ns cadence):\n", ts.Len(), ts.IntervalNS)
	const width = 60
	fmt.Println(plot.SparklineLabeled("ipc", ts.PerCycle("machine.instrs"), width))
	fmt.Println(plot.SparklineLabeled("l2_miss_rate", ts.Ratio("mem.l2.misses", "mem.l2.accesses"), width))
	dtUS := ts.DeltaTime()
	for i := range dtUS {
		dtUS[i] /= 1000
	}
	fmt.Println(plot.SparklineLabeled("bus_req_per_us", metrics.Div(ts.Delta("bus.requests"), dtUS), width))
	fmt.Println(plot.SparklineLabeled("lock_contention", ts.Ratio("os.lock_contentions", "os.lock_acquisitions"), width))
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

func printResult(r machine.Result) { report.WriteResult(os.Stdout, r) }

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
