// Package fleet is the parallel run-fleet scheduler: a worker pool that
// fans pure simulation jobs out across host cores and merges their
// results by job index, never by completion order.
//
// It lives deliberately *outside* the determinism wall (see
// docs/DETERMINISM.md and docs/PARALLELISM.md): detwall forbids `go`
// statements in the simulation core because host goroutine scheduling
// is nondeterministic, and that is exactly the nondeterminism this
// package contains. The contract that makes the combination safe is the
// one the wall already enforces — every job is a pure function of
// (checkpoint clone, derived seed) with no shared mutable state — so
// the only thing the host scheduler can reorder is *when* each job
// runs, never *what* it computes. Index-ordered merging then makes the
// output byte-identical to the sequential path for any worker count.
//
// Callers inside the wall (core.Branch, the harness's
// per-configuration space builds) may import and call this package:
// the call site contains no forbidden construct, and the scheduler
// guarantees the call is observationally sequential.
//
// Run layers crash-safety on top of Map's scheduling (see
// docs/RESILIENCE.md): completion hooks through OnResult and graceful
// drain through Stop. A job is a pure function of its index, so a
// failed one would fail again: there is no retry. Run schedules only:
// which runs a journal already holds is core's business, and those
// never reach the fleet.
package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"varsim/internal/profile"
)

// JobError reports the failure of one job, carrying the job's index so
// error messages stay stable across worker counts and so callers can
// re-label the failure in their own terms (e.g. "run 3").
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("fleet: job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying job failure to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Incomplete reports a graceful drain: Stop fired, every in-flight job
// finished (and was journaled through OnResult), and the listed
// indices never ran. It is distinct from a job failure — callers use
// errors.As to render a partial, resumable result instead of an error.
type Incomplete struct {
	Done    int   // jobs of this call that completed
	Total   int   // jobs this call was given
	Missing []int // indices never run, ascending
}

func (e *Incomplete) Error() string {
	return fmt.Sprintf("fleet: incomplete: drained with %d/%d jobs done", e.Done, e.Total)
}

// Stats is a point-in-time view of process-wide fleet activity, the
// occupancy counterpart of machine.SimulatedCycles: the progress ledger
// (obs.Fleet, behind /status and the stderr heartbeat) reads it to show
// how busy the worker pool is and how far through the run matrix it is.
type Stats struct {
	BusyWorkers int64 `json:"busy_workers"`
	JobsDone    int64 `json:"jobs_done"`
	JobsTotal   int64 `json:"jobs_total"`
}

var (
	busyWorkers atomic.Int64
	jobsDone    atomic.Int64
	jobsTotal   atomic.Int64
)

// Read returns the process-wide fleet occupancy counters.
func Read() Stats {
	return Stats{
		BusyWorkers: busyWorkers.Load(),
		JobsDone:    jobsDone.Load(),
		JobsTotal:   jobsTotal.Load(),
	}
}

// Options configures a Run call. The zero value reproduces Map's
// behaviour exactly: the sequential path, no hooks, no drain, jobs
// indexed [0, n).
type Options[T any] struct {
	// Workers is the pool width, in the convention varsim uses
	// everywhere (core.Experiment.Workers, harness.Options.Workers, the
	// CLIs' -j flag): 0 and 1 mean the sequential path, a negative
	// value one worker per host CPU, and any other value is taken
	// literally.
	Workers int
	// OnResult, when non-nil, observes every job's settlement — result
	// or error — from the worker goroutine that ran it. This is where
	// the result journal appends; implementations must be safe for
	// concurrent calls (journal.Writer serializes internally).
	OnResult func(i int, v T, err error)
	// Labels, when non-empty, are pprof labels ("key", "value", ...)
	// attached to every job via profile.Do, so a -cpuprofile
	// attributes host CPU per experiment/configuration instead of
	// lumping every job under the worker loop. Labels never touch job
	// inputs or the merge, so they cannot perturb results.
	Labels []string
	// Stop, when non-nil, is the graceful-drain signal: once it is
	// closed, no new jobs are handed out, in-flight jobs run to
	// completion and are journaled, and Run returns *Incomplete listing
	// the indices that never ran.
	Stop <-chan struct{}
	// Indices, when non-nil, names the n jobs of this Run call (n must
	// be len(Indices)): job i is presented as Indices[i] to the job
	// closure, OnResult, JobError and Incomplete.Missing,
	// while its result still merges at position i. core.Branch passes
	// the run indices a journal does not already hold, so every run
	// keeps its global (experiment, config hash, derived seed, run
	// index) identity however a space is split across calls and
	// replays. Nil indexes the jobs [0, n).
	Indices []int
}

// Stopped reports whether the drain signal has fired. A nil Stop
// channel never fires (the nil case blocks; default wins).
func (o *Options[T]) Stopped() bool {
	select {
	case <-o.Stop:
		return true
	default:
		return false
	}
}

// index is job i's externally visible index.
func (o *Options[T]) index(i int) int {
	if o.Indices != nil {
		return o.Indices[i]
	}
	return i
}

// Pool is a free list jobs pass finished values through, within one
// fleet call or from one call to the caller's next: a job that is done
// with a value Puts it, a later job Gets it to build over its storage.
// Which value a Get returns depends on how the host scheduled the jobs,
// so a job may use one only in ways that cannot show — core's branches
// re-copy or overwrite all of a spent machine's storage before reading
// any of it. The zero Pool is empty and ready; it must not be copied
// after first use.
type Pool[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get removes and returns the value Put last, or the zero T when the
// pool is empty.
func (p *Pool[T]) Get() (v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		var zero T
		v, p.free[n-1] = p.free[n-1], zero
		p.free = p.free[:n-1]
	}
	return v
}

// Put adds v to the pool. The caller must not use v afterwards.
func (p *Pool[T]) Put(v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, v)
}

// Map runs job(i) for every i in [0, n) across a pool of workers and
// returns the n results merged by job index. The scheduling rules:
//
//   - workers is Options.Workers' convention: 0 and 1 (or n == 1)
//     degenerate to a plain loop on the calling goroutine — the
//     sequential path, with zero goroutines — and a negative value
//     selects one worker per host CPU. The pool never exceeds n.
//   - Every job runs to completion even when another job fails: partial
//     fleets would make "which runs happened" depend on worker timing.
//   - A panicking job is captured per-job and surfaced as an error, the
//     same conversion harness.RunOne applies to panicking experiments.
//   - The returned error is the failure with the lowest job index (a
//     *JobError), which is independent of completion order.
//
// Jobs must be pure: closures over private state (a machine.Snapshot
// clone and a derived seed) with no writes to anything shared. Under
// that contract Map's result is byte-identical for every worker count.
func Map[T any](workers, n int, job func(int) (T, error)) ([]T, error) {
	return Run(Options[T]{Workers: workers}, n, job)
}

// Run is Map with resilience: the same index-ordered merge and
// run-every-job scheduling, plus the journal and drain behaviour
// documented on Options. The returned error is, in priority order: the
// lowest-index job failure (a *JobError), else *Incomplete when a drain
// left jobs unrun, else nil.
func Run[T any](opts Options[T], n int, job func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	ran := make([]bool, n)
	jobsTotal.Add(int64(n))
	runOne := func(i int) {
		ran[i] = true
		gi := opts.index(i)
		busyWorkers.Add(1)
		var v T
		var err error
		profile.Do(opts.Labels, func() { v, err = runJob(job, gi) })
		busyWorkers.Add(-1)
		if opts.OnResult != nil {
			opts.OnResult(gi, v, err)
		}
		if err != nil {
			errs[i] = &JobError{Index: gi, Err: err}
		} else {
			results[i] = v
		}
		jobsDone.Add(1)
	}
	if workers <= 1 {
		for i := 0; i < n && !opts.Stopped(); i++ {
			runOne(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !opts.Stopped() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}
	for i := range errs {
		if errs[i] != nil {
			return results, errs[i]
		}
	}
	var missing []int
	for i := range ran {
		if !ran[i] {
			missing = append(missing, opts.index(i))
		}
	}
	if missing != nil {
		return results, &Incomplete{Done: n - len(missing), Total: n, Missing: missing}
	}
	return results, nil
}

// runJob runs job(i), converting a panic into the job's error — the
// same conversion harness.RunOne applies to panicking experiments.
func runJob[T any](job func(int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return job(i)
}
