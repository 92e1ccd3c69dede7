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
//	varsim -workload oltp -runs 20 -txns 200 -journal out/ -retries 2
//	varsim -resume out/
//	varsim -workload oltp -runs 10 -txns 200 -digest-us 50 -journal out/
//	varsim diff -A out/ -run-a 0 -run-b 3
//	varsim -workload oltp -runs 20 -txns 200 -precision
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
// simulated microseconds inside each run and prints the cross-run
// divergence attribution; 'varsim diff' compares two runs' digest
// streams and locates their first divergent interval (see
// docs/OBSERVABILITY.md).
//
// The -j flag sets the worker-fleet width for the perturbed runs
// (default: one worker per host CPU). Output is byte-identical for
// every -j value: runs merge by index, never completion order (see
// docs/PARALLELISM.md). -j 1 forces the sequential path.
//
// -journal writes a crash-safe result journal (plus the experiment
// spec) into a directory as runs complete; after a crash or a SIGINT
// drain, -resume replays the journaled runs and executes only the
// missing ones, producing byte-identical output to an uninterrupted
// run (docs/RESILIENCE.md).
//
// -precision appends the achieved-vs-requested precision table to the
// space report (fed in run-index order, so it is byte-identical at any
// -j); 'varsim precision' rebuilds the same table post-hoc from a
// journal directory. With -http, /precision and the dashboard's
// convergence panel stream the table live as runs settle.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"varsim"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/metrics"
	"varsim/internal/obs"
	"varsim/internal/plot"
	"varsim/internal/precision"
	"varsim/internal/profile"
	"varsim/internal/report"
	"varsim/internal/sampling"
	"varsim/internal/trace"
	"varsim/internal/traceviz"
)

// specFile is the experiment definition saved next to the journal so
// -resume can rebuild the run without repeating the original flags.
const specFile = "spec.json"

// runCfg carries the non-experiment knobs into run().
type runCfg struct {
	wlName           string
	seed, pseed      uint64
	schedTr, lockRep bool
	saveRcp, fromRcp string
	intervalUS       int64
	seriesCSV        string
	seriesJSONL      string
	perfetto         string
	pub              *obs.Publisher     // nil unless -http is set
	trk              *precision.Tracker // nil unless -http is set
	precTable        bool               // -precision: print the table after the space
	relErr, conf     float64            // precision target
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
		wlName  = flag.String("workload", "oltp", "workload: "+strings.Join(varsim.Workloads(), ", "))
		cpus    = flag.Int("cpus", 16, "number of processors")
		txns    = flag.Int64("txns", 200, "transactions to measure")
		warmup  = flag.Int64("warmup", 500, "transactions to run before measuring")
		runs    = flag.Int("runs", 1, "perturbed runs branched from the warmed checkpoint")
		workers = flag.Int("j", runtime.GOMAXPROCS(0), "fleet workers for the perturbed runs (1 = sequential; output is identical for any value)")
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

		intervalUS  = flag.Int64("interval-us", 0, "sample the metrics registry every N simulated microseconds and print per-interval sparklines")
		digestUS    = flag.Int64("digest-us", 0, "record an interval state digest every N simulated microseconds in each run and print the divergence attribution (with -journal, digests persist for 'varsim diff')")
		seriesCSV   = flag.String("series-csv", "", "write the sampled metric time series as CSV to this file")
		seriesJSONL = flag.String("series-jsonl", "", "write the sampled metric time series as JSON lines to this file")
		perfetto    = flag.String("perfetto", "", "write a Chrome Trace Event / Perfetto JSON trace of the perturbed runs to this file (load it in ui.perfetto.dev)")
		httpAddr    = flag.String("http", "", "serve live observability on this address (/metrics, /status, /series, /debug/pprof, dashboard at /)")
		manifestP   = flag.String("manifest", "", "write a run-provenance manifest (JSON) to this file")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file")
		traceProf   = flag.String("trace", "", "write a runtime execution trace to this file")

		precTable = flag.Bool("precision", false, "print the achieved-vs-requested precision table after the space report (fed in run-index order; byte-identical at any -j)")
		relErrF   = flag.Float64("rel-err", precision.DefaultRelErr, "precision target: tolerated relative error of the mean (a fraction: 0.04 = ±4%)")
		confF     = flag.Float64("confidence", precision.DefaultConfidence, "precision target: confidence level of the interval, in (0,1)")
		adaptive  = flag.Bool("adaptive", false, "schedule runs adaptively: stop once the CI meets -rel-err at -confidence (-runs becomes the fixed-N baseline for the runs-saved accounting; see docs/SAMPLING.md)")
		budget    = flag.Int("budget", 0, "adaptive: hard cap on runs per configuration (0 = the sampling default)")

		journalDir = flag.String("journal", "", "write a crash-safe result journal and the experiment spec into this directory")
		resumeDir  = flag.String("resume", "", "resume a journaled run from this directory (replays completed runs, executes the rest)")
		jobTimeout = flag.Duration("job-timeout", 0, "wall-clock timeout per run attempt (0 = unbounded); timed-out attempts are retried within -retries")
		retries    = flag.Int("retries", 0, "extra attempts for a failed run (the retry reuses the run's original derived seed)")
	)
	flag.Parse()

	cfg := varsim.DefaultConfig()
	cfg.NumCPUs = *cpus
	cfg.PerturbMaxNS = *perturb
	cfg.L2.Assoc = *assoc
	cfg.MemSupplyNS = *dram
	switch *proc {
	case "simple":
		cfg.Processor = varsim.SimpleProc
	case "ooo":
		cfg.Processor = varsim.OOOProc
		cfg.OOO.ROBEntries = *rob
	default:
		fmt.Fprintf(os.Stderr, "unknown processor model %q\n", *proc)
		os.Exit(2)
	}

	rc := runCfg{
		wlName: *wlName, seed: *seed, pseed: *pseed,
		schedTr: *schedTr, lockRep: *lockRep,
		saveRcp: *saveRcp, fromRcp: *fromRcp,
		intervalUS: *intervalUS, seriesCSV: *seriesCSV, seriesJSONL: *seriesJSONL,
		perfetto:  *perfetto,
		precTable: *precTable, relErr: *relErrF, conf: *confF,
	}
	if *httpAddr != "" {
		rc.pub = obs.NewPublisher()
		rc.trk = precision.New(*relErrF, *confF)
		rc.trk.TrackSampling(sampling.Latest)
		srv, err := obs.Serve(*httpAddr, obs.Options{
			Publisher: rc.pub,
			SimCycles: varsim.SimulatedCycles,
			Precision: rc.trk,
		})
		fail(err)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability server on http://%s/\n", srv.Addr())
	}

	stopProf, err := profile.Start(*cpuProf, *traceProf)
	fail(err)
	var man *report.Manifest
	if *manifestP != "" {
		man = report.NewManifest("varsim", *seed, varsim.SimulatedCycles)
		man.Args = os.Args[1:]
		man.ConfigHash = report.ConfigHash(cfg)
	}

	e := varsim.Experiment{
		Label:            fmt.Sprintf("%s/%s", *wlName, *proc),
		Config:           cfg,
		Workload:         *wlName,
		WorkloadSeed:     *seed,
		WarmupTxns:       *warmup,
		MeasureTxns:      *txns,
		Runs:             *runs,
		SeedBase:         *pseed,
		Workers:          *workers,
		DigestIntervalNS: *digestUS * 1000,
	}
	if *adaptive {
		// The target rides in the experiment spec, so a -resume replays
		// the same stopping rule and the journaled barrier decisions.
		e.Adaptive = &sampling.Target{RelErr: *relErrF, Confidence: *confF, MaxRuns: *budget}
	}

	// Crash-safety plumbing: -resume rebuilds the experiment from the
	// saved spec and replays the journal; -journal starts a fresh one.
	// Either way the journal stays open for appends and the run drains
	// gracefully on SIGINT/SIGTERM.
	var jw *journal.Writer
	var jc *journal.Cache
	switch {
	case *resumeDir != "":
		spec, err := loadSpec(filepath.Join(*resumeDir, specFile))
		fail(err)
		spec.Workers = *workers // width never changes the bytes; the spec pins everything that does
		e = spec
		jc, jw, err = journal.OpenDir(*resumeDir, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
		fail(err)
	case *journalDir != "":
		fail(os.MkdirAll(*journalDir, 0o777))
		fail(saveSpec(filepath.Join(*journalDir, specFile), e))
		var err error
		jw, err = journal.CreateDir(*journalDir)
		fail(err)
	}
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "varsim: draining in-flight runs; signal again to abort immediately")
		close(stop)
		<-sigc
		os.Exit(130)
	}()
	e.Resilience = varsim.Resilience{
		Journal:    jw,
		Cache:      jc,
		JobTimeout: *jobTimeout,
		Retries:    *retries,
		Stop:       stop,
	}
	if rc.trk != nil {
		// Live convergence tracking for /precision and the dashboard.
		// The tracker fills in completion order and never touches
		// stdout, so byte-identity of the report is unaffected.
		trk := rc.trk
		e.Resilience.Observe = func(k journal.Key, r varsim.Result) {
			trk.Observe(k.Experiment, k.ConfigHash, "cpt", r.CPT)
		}
	}

	// Run, then flush profiles and the manifest even on failure — a
	// partial run's provenance is still worth keeping.
	runStart := time.Now()
	simStart := varsim.SimulatedCycles()
	runErr := run(e, rc)

	// Journal teardown: Close reports the first sticky append failure —
	// a journal that silently lost records must not look resumable.
	if cerr := jw.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}

	if err := stopProf(); err != nil && runErr == nil {
		runErr = err
	}
	if *memProf != "" {
		if err := profile.WriteHeap(*memProf); err != nil && runErr == nil {
			runErr = err
		}
	}
	var inc *fleet.Incomplete
	drained := errors.As(runErr, &inc)
	if man != nil {
		errMsg := ""
		if runErr != nil && !drained {
			errMsg = runErr.Error()
		}
		man.Incomplete = drained
		man.AddExperiment(e.Label, time.Since(runStart), varsim.SimulatedCycles()-simStart, errMsg)
		man.Finish()
		if err := man.WriteFile(*manifestP); err != nil && runErr == nil {
			runErr = err
		} else if err == nil {
			fmt.Printf("run manifest written to %s\n", *manifestP)
		}
	}
	if drained {
		dir := *resumeDir
		if dir == "" {
			dir = *journalDir
		}
		if dir != "" {
			fmt.Fprintf(os.Stderr, "varsim: run incomplete (%d/%d runs); resume with: varsim -resume %s\n",
				inc.Done, inc.Total, dir)
		} else {
			fmt.Fprintf(os.Stderr, "varsim: run incomplete (%d/%d runs); re-run with -journal to make drains resumable\n",
				inc.Done, inc.Total)
		}
		os.Exit(1)
	}
	fail(runErr)
}

// saveSpec writes the experiment definition as indented JSON; the
// Resilience field is excluded by its json:"-" tag, so the spec is a
// pure description of what to simulate.
func saveSpec(path string, e varsim.Experiment) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadSpec reads an experiment definition saved by saveSpec.
func loadSpec(path string) (varsim.Experiment, error) {
	var e varsim.Experiment
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
func run(e varsim.Experiment, rc runCfg) error {
	if rc.schedTr || rc.lockRep {
		wl, err := varsim.NewWorkload(rc.wlName, e.Config, rc.seed)
		if err != nil {
			return err
		}
		m, err := varsim.NewMachine(e.Config, wl, rc.pseed)
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
			fmt.Print(varsim.FormatLockReport(varsim.LockReport(m.Trace().Events()), 20))
		}
		printResult(res)
		return nil
	}

	// Adaptive scheduling replaces the fixed-N branch entirely: rounds
	// run until the CI meets the target, every decision is journaled,
	// and a resume whose journal covers the schedule replays it without
	// preparing the machine (Rounds builds the checkpoint lazily).
	if e.Adaptive != nil {
		if rc.fromRcp != "" || rc.saveRcp != "" || rc.intervalUS > 0 || rc.perfetto != "" || e.DigestIntervalNS > 0 {
			return errors.New("varsim: -adaptive does not combine with -from-recipe, -save-recipe, -interval-us, -perfetto or -digest-us")
		}
		sp, arm, runErr := e.AdaptiveSpace(*e.Adaptive)
		var inc *fleet.Incomplete
		if runErr != nil && !errors.As(runErr, &inc) {
			return runErr
		}
		rep := sampling.Report{Target: e.Adaptive.Normalize(), Arms: []sampling.Arm{arm}}
		rep.Finalize()
		report.WriteSpace(os.Stdout, sp)
		report.WriteSampling(os.Stdout, rep)
		if rc.precTable && runErr == nil {
			printPrecisionTable(sp, journal.ConfigHash(e.Config), rc.relErr, rc.conf)
		}
		return runErr
	}

	// The checkpoint is built here only when something besides the
	// branches needs it (a recipe in or out, the live publisher, the
	// sampled run); otherwise Experiment.Branch prepares it on demand,
	// and a resume whose journal already covers every run replays the
	// whole space without it — the warmup itself is skipped, so resuming
	// a finished run is nearly free.
	var base *varsim.Machine
	if rc.fromRcp != "" {
		rcp, err := varsim.LoadRecipe(rc.fromRcp)
		if err != nil {
			return err
		}
		if base, err = rcp.Build(); err != nil {
			return err
		}
	} else if rc.saveRcp != "" || rc.pub != nil || rc.intervalUS > 0 {
		var err error
		if base, err = e.Prepare(); err != nil {
			return err
		}
	}
	if rc.saveRcp != "" {
		if err := varsim.SaveRecipe(rc.saveRcp, varsim.RecipeFromExperiment(e)); err != nil {
			return err
		}
		fmt.Printf("checkpoint recipe written to %s\n", rc.saveRcp)
	}
	if rc.pub != nil {
		// Publish the warmed registry (names, kinds, warmup totals) and
		// hook every interval sample; Snapshot propagates the hook into
		// the branched runs below.
		rc.pub.PublishRegistry(base.Metrics())
		base.SetSampleHook(rc.pub.Hook())
	}

	if rc.intervalUS > 0 {
		intervalNS := rc.intervalUS * 1000
		if rc.pub != nil {
			rc.pub.SetSeriesBase(intervalNS, base.Now(), base.Metrics().Snapshot())
		}
		res, ts, err := varsim.SampleRun(base, e.MeasureTxns, rc.pseed, intervalNS)
		if err != nil {
			return err
		}
		fmt.Printf("sampled run: ")
		printResult(res)
		printSeries(ts)
		if rc.seriesCSV != "" {
			if err := writeSeries(rc.seriesCSV, ts.WriteCSV); err != nil {
				return err
			}
			fmt.Printf("metric series (CSV) written to %s\n", rc.seriesCSV)
		}
		if rc.seriesJSONL != "" {
			if err := writeSeries(rc.seriesJSONL, ts.WriteJSONL); err != nil {
				return err
			}
			fmt.Printf("metric series (JSONL) written to %s\n", rc.seriesJSONL)
		}
		if e.Runs <= 1 && rc.perfetto == "" {
			return nil
		}
	}

	// One plan whatever is captured: digests at the spec's cadence, the
	// event trace when a Perfetto export is asked for.
	plan := e.BranchPlan()
	plan.Trace = rc.perfetto != ""
	var b varsim.Branched
	var err error
	if base != nil {
		b, err = varsim.Branch(base, plan)
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
				if d := varsim.DiffDigests(sd.Series[0], sd.Series[i]); d.Diverged {
					runs[i].Marks = []traceviz.Mark{{TimeNS: d.TimeNS, Name: fmt.Sprintf("diverged: %s", d.Component)}}
				}
			}
		}
		if err := traceviz.WriteFile(rc.perfetto, runs...); err != nil {
			return err
		}
		fmt.Printf("Perfetto trace (%d runs) written to %s — open it at https://ui.perfetto.dev\n",
			len(runs), rc.perfetto)
	}
	report.WriteSpace(os.Stdout, sp)
	if plan.DigestIntervalNS > 0 {
		att := sd.Attribution(sp)
		if rc.pub != nil {
			rc.pub.PublishDivergence(att)
		}
		report.WriteAttribution(os.Stdout, att)
	}
	if rc.precTable {
		printPrecisionTable(sp, journal.ConfigHash(e.Config), rc.relErr, rc.conf)
	}
	return nil
}

// printSeries renders the run's headline per-interval series as
// sparklines: IPC, L2 miss rate, bus traffic and lock contention — the
// live form of the paper's Figures 2–4.
func printSeries(ts varsim.MetricSeries) {
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

func writeSeries(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printResult(r varsim.Result) { report.WriteResult(os.Stdout, r) }

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
