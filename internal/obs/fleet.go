package obs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/sampling"
)

// Experiment states reported by /status and the manifest.
const (
	StatePending = "pending"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateDrained is an experiment a graceful drain cut short (its
	// error is a *fleet.Incomplete): the journal keeps what settled and
	// -resume finishes it, so it is not a failure.
	StateDrained = "drained"
)

// Fleet is a run's one progress ledger: which experiments exist, which
// is running, how long finished ones took and how much they simulated.
// It is the only reader of the process-wide counters —
// machine.SimulatedCycles, fleet.Read, journal.ReadStats and
// sampling.Read — outside the benchmark, and /status, /metrics, the
// heartbeat and the run manifest all render its Status. It is safe for
// concurrent use: the session feeds it, HTTP handlers and the heartbeat
// read it.
type Fleet struct {
	mu       sync.Mutex
	start    time.Time
	simStart int64
	order    []string
	byName   map[string]*fleetEntry
	finished []float64 // wall seconds of completions, in completion order
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

// NewFleet builds a ledger over the named experiments (all pending).
func NewFleet(names []string) *Fleet {
	f := &Fleet{start: time.Now(), simStart: machine.SimulatedCycles(), byName: map[string]*fleetEntry{}}
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

// Start marks the named experiment running (registering it if
// unknown).
func (f *Fleet) Start(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.add(name)
	e.state = StateRunning
	e.started = time.Now()
	e.simAt = machine.SimulatedCycles()
	e.jobsAt = fleet.Read().JobsDone
}

// Finish books the named experiment's outcome — done, drained when err
// is a *fleet.Incomplete, failed for any other error — with its wall
// time, simulated-cycle and job deltas, and returns the wall time.
func (f *Fleet) Finish(name string, err error) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.add(name)
	if e.state == StateRunning {
		e.wall = time.Since(e.started)
		e.cycles = machine.SimulatedCycles() - e.simAt
		e.jobs = fleet.Read().JobsDone - e.jobsAt
		f.finished = append(f.finished, e.wall.Seconds())
	}
	var inc *fleet.Incomplete
	switch {
	case errors.As(err, &inc):
		e.state, e.errMsg = StateDrained, err.Error()
	case err != nil:
		e.state, e.errMsg = StateFailed, err.Error()
	default:
		e.state = StateDone
	}
	return e.wall
}

// ExperimentStatus is one experiment's row: of a /status response,
// and — once it has started — of the run manifest.
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
// experiment's state. Done counts experiments past running — done,
// failed or drained — and Failed the failed ones only. ETA extrapolates
// from the pace of the most recently finished experiments (see
// etaSecs); it is absent until the first experiment completes.
type FleetStatus struct {
	Total           int      `json:"total"`
	Done            int      `json:"done"`
	Failed          int      `json:"failed"`
	Running         []string `json:"running,omitempty"`
	ElapsedSecs     float64  `json:"elapsed_seconds"`
	ETASecs         float64  `json:"eta_seconds,omitempty"`
	SimCycles       int64    `json:"sim_cycles"`
	SimCyclesPerSec float64  `json:"sim_cycles_per_sec"`
	// Worker-pool occupancy (fleet.Read): workers busy right now and
	// simulation jobs finished/submitted so far.
	WorkersBusy int64 `json:"workers_busy,omitempty"`
	JobsDone    int64 `json:"jobs_done,omitempty"`
	JobsTotal   int64 `json:"jobs_total,omitempty"`
	// Result-journal counters (journal.ReadStats; zero without a
	// journal): records durably appended, appends started but not yet
	// fsync'd (the journal lag), and cache replays served on resume.
	JournalAppended int64 `json:"journal_appended,omitempty"`
	JournalLag      int64 `json:"journal_lag,omitempty"`
	JournalReplayed int64 `json:"journal_replayed,omitempty"`
	// Adaptive-scheduler counters (sampling.Read): barrier rounds
	// decided, runs actually executed under adaptive schedules, and runs
	// saved against the fixed-N baseline. See docs/SAMPLING.md.
	SamplingRounds   int64              `json:"sampling_rounds,omitempty"`
	SamplingExecuted int64              `json:"sampling_executed,omitempty"`
	SamplingSaved    int64              `json:"sampling_saved,omitempty"`
	Experiments      []ExperimentStatus `json:"experiments"`
}

// Status snapshots the ledger, reading each process counter once.
func (f *Fleet) Status() FleetStatus {
	if f == nil {
		return FleetStatus{Experiments: []ExperimentStatus{}}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	sim, js, jn, ss := machine.SimulatedCycles(), fleet.Read(), journal.ReadStats(), sampling.Read()
	st := FleetStatus{
		Total:       len(f.order),
		ElapsedSecs: now.Sub(f.start).Seconds(),
		SimCycles:   sim - f.simStart,
		WorkersBusy: js.BusyWorkers, JobsDone: js.JobsDone, JobsTotal: js.JobsTotal,
		JournalAppended: jn.Appended, JournalLag: jn.Lag, JournalReplayed: jn.Hits,
		SamplingRounds: ss.Rounds, SamplingExecuted: ss.Executed, SamplingSaved: ss.Saved,
		Experiments: make([]ExperimentStatus, 0, len(f.order)),
	}
	for _, name := range f.order {
		e := f.byName[name]
		es := ExperimentStatus{Name: name, State: e.state, Error: e.errMsg}
		switch e.state {
		case StateRunning:
			es.WallSecs = now.Sub(e.started).Seconds()
			es.SimCycles = sim - e.simAt
			es.Jobs = js.JobsDone - e.jobsAt
			st.Running = append(st.Running, name)
		case StateDone, StateFailed, StateDrained:
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
	if st.ElapsedSecs > 0 {
		st.SimCyclesPerSec = float64(st.SimCycles) / st.ElapsedSecs
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
	}
	if s.ETASecs > 0 {
		out += fmt.Sprintf(", ETA ~%s", time.Duration(s.ETASecs*float64(time.Second)).Round(time.Second))
	}
	return out
}
