// Package session owns a command-line run from open to exit: the
// plumbing around the simulations that cmd/varsim and cmd/experiments
// share. Register defines the eight flags that mean the same thing in
// both tools; Open starts the profilers, opens or resumes the result
// journal, arms the two-signal drain and builds the core.Resilience,
// the progress ledger, the precision tracker, the manifest, the
// heartbeat and the -http server; Run books one experiment on the
// ledger; Close flushes everything in one order and returns the exit
// status.
//
// Everything a session says goes to Options.Stderr, so a tool's stdout
// carries results only and is diffable run to run. The package is
// outside the determinism wall: it reads wall clocks and signals, and
// nothing it computes reaches a simulation.
package session

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"varsim/internal/core"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/obs"
	"varsim/internal/precision"
	"varsim/internal/profile"
	"varsim/internal/report"
)

// Flags holds the values of the shared flags (README, "Session flags").
type Flags struct {
	Workers    int
	Manifest   string
	HTTP       string
	CPUProfile string
	MemProfile string
	Trace      string
	Journal    string
	Resume     string
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "j", runtime.GOMAXPROCS(0), "fleet workers for the independent runs (1 = sequential; output is identical for any value)")
	fs.StringVar(&f.Manifest, "manifest", "", "write a run-provenance manifest (JSON) to this file")
	fs.StringVar(&f.HTTP, "http", "", "serve live observability on this address (/status, /metrics, /precision, /debug/pprof, dashboard at /)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
	fs.StringVar(&f.Journal, "journal", "", "write a crash-safe result journal into this directory as runs settle")
	fs.StringVar(&f.Resume, "resume", "", "resume from a journal directory: journaled runs replay, the rest execute")
	return f
}

// Options is what a tool knows about its run and the session does not.
type Options struct {
	Tool        string   // binary name, for the manifest and operator messages
	Experiments []string // what Run will be called with, in order: the ledger's rows
	Seed        uint64   // manifest: workload identity seed
	Quick       bool     // manifest: scaled-down run
	ConfigHash  string   // manifest: hash of what was asked for
	// RelErr and Confidence are the precision tracker's target (0
	// selects the precision package's default).
	RelErr, Confidence float64
	Heartbeat          time.Duration // progress-line period; 0 = none
	ResumeArgs         string        // appended to the resume hint so it is a runnable command
	Stderr             io.Writer     // where every operator message goes
}

// Session is one open CLI run.
type Session struct {
	// Resilience is the crash-safety plumbing for every experiment of
	// the run: journal, resume cache, drain signal and the precision
	// Observe hook.
	Resilience core.Resilience

	flags     *Flags
	opt       Options
	stopProf  func() error
	fleet     *obs.Fleet
	man       *Manifest
	hb        *report.Heartbeat
	srv       *obs.Server
	stop      chan struct{}
	drainOnce sync.Once
	sigc      chan os.Signal
	done      chan struct{} // closed by Close: releases the signal goroutine
	drained   bool
	failed    bool
}

// Open starts the session f and o describe.
func Open(f *Flags, o Options) (*Session, error) {
	s := &Session{flags: f, opt: o, stop: make(chan struct{}), done: make(chan struct{})}
	var err error
	if s.stopProf, err = profile.Start(f.CPUProfile, f.Trace); err != nil {
		return nil, err
	}

	var jw *journal.Writer
	var jc *journal.Cache
	switch {
	case f.Resume != "":
		jc, jw, err = journal.OpenDir(f.Resume, s.Logf)
	case f.Journal != "":
		jw, err = journal.CreateDir(f.Journal)
	}
	if err != nil {
		return nil, errors.Join(err, s.stopProf())
	}

	// Every settled run, live or replayed from the journal, feeds the
	// precision tracker behind /precision and the heartbeat's
	// achieved-vs-requested fragment. It fills in host completion order
	// and is never printed to stdout.
	trk := precision.New(o.RelErr, o.Confidence)
	s.Resilience = core.Resilience{
		Journal: jw, Cache: jc, Stop: s.stop,
		Observe: func(k journal.Key, r machine.Result) {
			trk.Observe(k.Experiment, k.ConfigHash, r.CPT)
		},
	}

	// One progress ledger: what the heartbeat prints, /status serves and
	// the manifest records.
	s.fleet = obs.NewFleet(o.Experiments)

	if f.HTTP != "" {
		s.srv, err = obs.Serve(f.HTTP, obs.Options{Fleet: s.fleet, Precision: trk})
		if err != nil {
			return nil, errors.Join(err, jw.Close(), s.stopProf())
		}
		s.Logf("observability server on http://%s/", s.srv.Addr())
	}

	if f.Manifest != "" {
		s.man = newManifest(o.Tool, o.Seed)
		s.man.Args = os.Args[1:]
		s.man.Quick = o.Quick
		s.man.ConfigHash = o.ConfigHash
	}
	if o.Heartbeat > 0 {
		s.hb = report.StartHeartbeat(o.Stderr, o.Heartbeat, func() string {
			line := s.fleet.Status().Line()
			if p := trk.Summary(); p != "" {
				line += ", " + p
			}
			return line
		})
	}

	// The graceful drain: a first SIGINT/SIGTERM lets in-flight runs
	// finish and be journaled, a second aborts.
	s.sigc = make(chan os.Signal, 2) // both signals may arrive before the goroutine is scheduled
	signal.Notify(s.sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-s.sigc:
		case <-s.done:
			return
		}
		s.Logf("%s: draining in-flight runs; signal again to abort immediately", o.Tool)
		s.Drain()
		select {
		case <-s.sigc:
			os.Exit(130)
		case <-s.done:
		}
	}()
	return s, nil
}

// Drain asks the run to stop: in-flight simulations finish and are
// journaled, nothing new starts. Idempotent.
func (s *Session) Drain() { s.drainOnce.Do(func() { close(s.stop) }) }

// Logf prints one operator message line.
func (s *Session) Logf(format string, args ...any) {
	fmt.Fprintf(s.opt.Stderr, format+"\n", args...)
}

// Check reports whether err is nil; a non-nil err is printed under what
// and makes Close return a failing status.
func (s *Session) Check(what string, err error) bool {
	if err != nil {
		s.Logf("%s: %v", what, err)
		s.failed = true
	}
	return err == nil
}

// Run books one experiment around fn on the ledger, whose row is also
// the manifest's. A *fleet.Incomplete from fn is a drain, not a failure
// — the journal keeps what settled and -resume picks up the rest. It
// reports whether the tool should go on to its next experiment: false
// after a drain or a failure, and at once (without calling fn) when a
// drain was already requested.
func (s *Session) Run(name string, fn func() error) bool {
	select {
	case <-s.stop:
		s.drained = true
		return false
	default:
	}
	s.fleet.Start(name)
	err := fn()
	wall := s.fleet.Finish(name, err)

	var inc *fleet.Incomplete
	switch {
	case errors.As(err, &inc):
		s.drained = true
		s.Logf("%s: drained with %d/%d runs done", name, inc.Done, inc.Total)
	case err != nil:
		s.Check(name, err)
	default:
		s.Logf("[%s finished in %v]", name, wall.Round(time.Millisecond))
	}
	return err == nil
}

// Close flushes the session — heartbeat, profiles, heap profile,
// journal, manifest, in that order, each attempted whatever failed
// before it — prints the resume hint after a drain, and returns the
// process exit status: 1 after a drain or any failure, else 0.
func (s *Session) Close() int {
	if s.hb != nil {
		s.hb.Stop()
	}
	s.Check("profile", s.stopProf())
	if s.flags.MemProfile != "" {
		s.Check("heap profile", profile.WriteHeap(s.flags.MemProfile))
	}
	// Close reports the first sticky append failure: a journal that
	// silently lost records must not look resumable.
	s.Check("journal", s.Resilience.Journal.Close())
	if s.man != nil {
		s.man.finish(s.fleet.Status())
		s.man.Incomplete = s.drained
		if s.Check("manifest", s.man.writeFile(s.flags.Manifest)) {
			s.Logf("run manifest written to %s", s.flags.Manifest)
		}
	}
	if s.srv != nil {
		s.srv.Close() //nolint:errcheck // nothing is served past this point
	}
	signal.Stop(s.sigc)
	close(s.done)

	if s.drained {
		dir := s.flags.Resume
		if dir == "" {
			dir = s.flags.Journal
		}
		if dir != "" {
			s.Logf("%s: run incomplete; resume with: %s -resume %s%s", s.opt.Tool, s.opt.Tool, dir, s.opt.ResumeArgs)
		} else {
			s.Logf("%s: run incomplete; re-run with -journal to make drains resumable", s.opt.Tool)
		}
	}
	if s.drained || s.failed {
		return 1
	}
	return 0
}
