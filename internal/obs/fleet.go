package obs

import (
	"fmt"
	"sync"
	"time"

	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/sampling"
)

// Experiment states reported by /status.
const (
	StatePending = "pending"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Fleet tracks a sweep's per-experiment progress for /status: which
// experiments exist, which is running, how long finished ones took and
// how fast they simulated. It is safe for concurrent use — the harness
// goroutine feeds it, HTTP handlers and the heartbeat read it.
type Fleet struct {
	mu        sync.Mutex
	start     time.Time
	simCycles func() int64          // process-wide counter; nil disables throughput
	jobs      func() fleet.Stats    // worker-pool occupancy; nil disables
	journal   func() journal.Stats  // result-journal counters; nil disables
	sampling  func() sampling.Stats // adaptive-scheduler counters; nil disables
	simStart  int64
	order     []string
	byName    map[string]*fleetEntry
	finished  []float64 // wall seconds of completions, in completion order
}

type fleetEntry struct {
	state   string
	started time.Time
	simAt   int64 // counter reading when the experiment started
	jobsAt  int64 // fleet jobs-done reading when the experiment started
	wall    time.Duration
	cycles  int64
	jobs    int64 // fleet jobs the experiment ran
	errMsg  string
}

// NewFleet builds a tracker over the named experiments (all pending).
// simCycles, when non-nil, reads the process-wide simulated-cycle
// counter (machine.SimulatedCycles) for throughput reporting.
func NewFleet(names []string, simCycles func() int64) *Fleet {
	f := &Fleet{
		start:     time.Now(),
		simCycles: simCycles,
		byName:    map[string]*fleetEntry{},
	}
	if simCycles != nil {
		f.simStart = simCycles()
	}
	for _, n := range names {
		f.add(n)
	}
	return f
}

func (f *Fleet) add(name string) *fleetEntry {
	e, ok := f.byName[name]
	if !ok {
		e = &fleetEntry{state: StatePending}
		f.byName[name] = e
		f.order = append(f.order, name)
	}
	return e
}

// TrackJobs wires a reader of the worker-pool occupancy counters
// (normally fleet.Read), adding busy-worker and job-progress fields to
// /status, /metrics and the heartbeat line.
func (f *Fleet) TrackJobs(fn func() fleet.Stats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.jobs = fn
}

// TrackJournal wires a reader of the result-journal counters (normally
// journal.ReadStats), adding durable-record, append-lag and replay
// fields to /status, /metrics and the heartbeat line.
func (f *Fleet) TrackJournal(fn func() journal.Stats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.journal = fn
}

// TrackSampling wires a reader of the adaptive-scheduler counters
// (normally sampling.Read), adding barrier-round, executed-run and
// runs-saved fields to /status and the heartbeat line.
func (f *Fleet) TrackSampling(fn func() sampling.Stats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sampling = fn
}

// Start marks the named experiment running (registering it if
// unknown).
func (f *Fleet) Start(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.add(name)
	e.state = StateRunning
	e.started = time.Now()
	if f.simCycles != nil {
		e.simAt = f.simCycles()
	}
	if f.jobs != nil {
		e.jobsAt = f.jobs().JobsDone
	}
}

// Finish marks the named experiment done (or failed, when err is
// non-nil), recording its wall time and simulated-cycle delta.
func (f *Fleet) Finish(name string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.add(name)
	if e.state == StateRunning {
		e.wall = time.Since(e.started)
		if f.simCycles != nil {
			e.cycles = f.simCycles() - e.simAt
		}
		if f.jobs != nil {
			e.jobs = f.jobs().JobsDone - e.jobsAt
		}
		f.finished = append(f.finished, e.wall.Seconds())
	}
	if err != nil {
		e.state = StateFailed
		e.errMsg = err.Error()
	} else {
		e.state = StateDone
	}
}

// ExperimentStatus is one experiment's slice of a /status response.
type ExperimentStatus struct {
	Name            string  `json:"name"`
	State           string  `json:"state"`
	WallSecs        float64 `json:"wall_seconds,omitempty"`
	SimCycles       int64   `json:"sim_cycles,omitempty"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
	Jobs            int64   `json:"jobs,omitempty"` // fleet jobs the experiment ran so far
	Error           string  `json:"error,omitempty"`
}

// FleetStatus is the /status payload: sweep-level progress plus every
// experiment's state. ETA extrapolates from the pace of the most
// recently finished experiments (see etaSecs); it is absent until the
// first experiment completes.
type FleetStatus struct {
	Total           int      `json:"total"`
	Done            int      `json:"done"`
	Failed          int      `json:"failed"`
	Running         []string `json:"running,omitempty"`
	ElapsedSecs     float64  `json:"elapsed_seconds"`
	ETASecs         float64  `json:"eta_seconds,omitempty"`
	SimCycles       int64    `json:"sim_cycles"`
	SimCyclesPerSec float64  `json:"sim_cycles_per_sec"`
	// Worker-pool occupancy (zero unless TrackJobs is wired): workers
	// busy right now and simulation jobs finished/submitted so far.
	WorkersBusy int64 `json:"workers_busy,omitempty"`
	JobsDone    int64 `json:"jobs_done,omitempty"`
	JobsTotal   int64 `json:"jobs_total,omitempty"`
	// Recovery activity (zero unless TrackJobs is wired): job attempts
	// rerun after a failure, and attempts cut off by the per-job
	// timeout. See docs/RESILIENCE.md.
	Retries  int64 `json:"retries,omitempty"`
	Timeouts int64 `json:"timeouts,omitempty"`
	// Result-journal counters (zero unless TrackJournal is wired):
	// records durably appended, appends started but not yet fsync'd
	// (the journal lag), and cache replays served on resume.
	JournalAppended int64 `json:"journal_appended,omitempty"`
	JournalLag      int64 `json:"journal_lag,omitempty"`
	JournalReplayed int64 `json:"journal_replayed,omitempty"`
	// Adaptive-scheduler counters (zero unless TrackSampling is wired):
	// barrier rounds decided, runs actually executed under adaptive
	// schedules, runs saved against the fixed-N baseline, and
	// configurations pruned mid-matrix. See docs/SAMPLING.md.
	SamplingRounds   int64              `json:"sampling_rounds,omitempty"`
	SamplingExecuted int64              `json:"sampling_executed,omitempty"`
	SamplingSaved    int64              `json:"sampling_saved,omitempty"`
	SamplingPruned   int64              `json:"sampling_pruned,omitempty"`
	Experiments      []ExperimentStatus `json:"experiments"`
}

// Status snapshots the fleet.
func (f *Fleet) Status() FleetStatus {
	if f == nil {
		return FleetStatus{Experiments: []ExperimentStatus{}}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	st := FleetStatus{
		Total:       len(f.order),
		ElapsedSecs: now.Sub(f.start).Seconds(),
		Experiments: make([]ExperimentStatus, 0, len(f.order)),
	}
	for _, name := range f.order {
		e := f.byName[name]
		es := ExperimentStatus{Name: name, State: e.state, Error: e.errMsg}
		switch e.state {
		case StateRunning:
			es.WallSecs = now.Sub(e.started).Seconds()
			if f.simCycles != nil {
				es.SimCycles = f.simCycles() - e.simAt
			}
			if f.jobs != nil {
				es.Jobs = f.jobs().JobsDone - e.jobsAt
			}
			st.Running = append(st.Running, name)
		case StateDone, StateFailed:
			es.WallSecs = e.wall.Seconds()
			es.SimCycles = e.cycles
			es.Jobs = e.jobs
			if e.state == StateFailed {
				st.Failed++
			}
			st.Done++
		}
		if es.WallSecs > 0 && es.SimCycles > 0 {
			es.SimCyclesPerSec = float64(es.SimCycles) / es.WallSecs
		}
		st.Experiments = append(st.Experiments, es)
	}
	if f.simCycles != nil {
		st.SimCycles = f.simCycles() - f.simStart
		if st.ElapsedSecs > 0 {
			st.SimCyclesPerSec = float64(st.SimCycles) / st.ElapsedSecs
		}
	}
	if f.jobs != nil {
		js := f.jobs()
		st.WorkersBusy = js.BusyWorkers
		st.JobsDone = js.JobsDone
		st.JobsTotal = js.JobsTotal
		st.Retries = js.Retries
		st.Timeouts = js.Timeouts
	}
	if f.journal != nil {
		j := f.journal()
		st.JournalAppended = j.Appended
		st.JournalLag = j.Lag
		st.JournalReplayed = j.Hits
	}
	if f.sampling != nil {
		ss := f.sampling()
		st.SamplingRounds = ss.Rounds
		st.SamplingExecuted = ss.Executed
		st.SamplingSaved = ss.Saved
		st.SamplingPruned = ss.Pruned
	}
	st.ETASecs = etaSecs(f.finished, st.Done, st.Total)
	return st
}

// etaWindow is how many recent completions feed the ETA pace.
const etaWindow = 5

// etaSecs extrapolates time remaining from the mean wall time of the
// last etaWindow completed experiments. A whole-sweep mean (elapsed /
// done) misleads when per-experiment cost drifts — a sweep warming its
// caches, or quick figures following heavy tables — and divides by
// zero worth of information before anything finishes: with no
// completions yet, or nothing left, the ETA is simply absent (0).
func etaSecs(finished []float64, done, total int) float64 {
	if done <= 0 || done >= total || len(finished) == 0 {
		return 0
	}
	recent := finished
	if len(recent) > etaWindow {
		recent = recent[len(recent)-etaWindow:]
	}
	var sum float64
	for _, w := range recent {
		sum += w
	}
	return sum / float64(len(recent)) * float64(total-done)
}

// Line renders the status as one line — what the stderr heartbeat
// prints (report.StartHeartbeat takes it as its line source), so the
// heartbeat and /status share one source of truth.
func (s FleetStatus) Line() string {
	out := fmt.Sprintf("%d/%d experiments", s.Done, s.Total)
	if s.Failed > 0 {
		out += fmt.Sprintf(" (%d failed)", s.Failed)
	}
	if len(s.Running) > 0 {
		out += ", running " + s.Running[0]
	}
	out += fmt.Sprintf(", elapsed %s", time.Duration(s.ElapsedSecs*float64(time.Second)).Round(time.Second))
	if s.SimCyclesPerSec > 0 {
		out += fmt.Sprintf(", %.3g sim-cycles/s", s.SimCyclesPerSec)
	}
	if s.JobsTotal > 0 {
		out += fmt.Sprintf(", fleet %d busy %d/%d jobs", s.WorkersBusy, s.JobsDone, s.JobsTotal)
		if s.Retries > 0 {
			out += fmt.Sprintf(", %d retries", s.Retries)
		}
		if s.Timeouts > 0 {
			out += fmt.Sprintf(", %d timeouts", s.Timeouts)
		}
	}
	if s.JournalAppended > 0 || s.JournalReplayed > 0 {
		out += fmt.Sprintf(", journal %d rec", s.JournalAppended)
		if s.JournalLag > 0 {
			out += fmt.Sprintf(" (lag %d)", s.JournalLag)
		}
		if s.JournalReplayed > 0 {
			out += fmt.Sprintf(", %d replayed", s.JournalReplayed)
		}
	}
	if s.SamplingRounds > 0 {
		out += fmt.Sprintf(", adaptive %d rounds %d saved", s.SamplingRounds, s.SamplingSaved)
		if s.SamplingPruned > 0 {
			out += fmt.Sprintf(" (%d pruned)", s.SamplingPruned)
		}
	}
	if s.ETASecs > 0 {
		out += fmt.Sprintf(", ETA ~%s", time.Duration(s.ETASecs*float64(time.Second)).Round(time.Second))
	}
	return out
}
