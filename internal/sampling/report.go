package sampling

import "sync/atomic"

// Arm statuses, the terminal state of one configuration under the
// adaptive scheduler.
const (
	StatusConverged  = "converged"  // stopped early at the requested precision
	StatusBudget     = "budget"     // settled at the run budget, converged or not
	StatusDecided    = "decided"    // a matrix arm whose comparison with the best is decided
	StatusIncomplete = "incomplete" // a drain interrupted the arm mid-round
)

// Arm is one configuration's line in the sampling report: what the
// scheduler spent on it versus the fixed-N baseline, and how tight the
// sample ended up.
type Arm struct {
	Experiment string `json:"experiment"`
	ConfigHash string `json:"config_hash"`
	// Executed is the number of runs actually performed (or replayed);
	// FixedN is what the fixed-N methodology would have spent.
	Executed int `json:"executed"`
	FixedN   int `json:"fixed_n"`
	// Rounds is how many barrier decisions the arm took.
	Rounds int `json:"rounds"`
	// RelPct is the achieved precision (CI half-width as a percentage
	// of the mean) at the final barrier; 0 when the sample never
	// supported an interval.
	RelPct float64 `json:"rel_pct,omitempty"`
	// Needed is the final §5.1.1 sample-size estimate.
	Needed int `json:"needed,omitempty"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
}

// Report is the adaptive scheduler's outcome: the requested target,
// one arm per configuration, and the runs-saved accounting the
// acceptance criterion (docs/SAMPLING.md) is stated in.
type Report struct {
	Target
	Arms []Arm `json:"arms"`
	// Executed and FixedN total the per-arm spend; SavedPct is the
	// runs-saved percentage 100·(1 − Executed/FixedN).
	Executed int     `json:"executed"`
	FixedN   int     `json:"fixed_n"`
	SavedPct float64 `json:"saved_pct"`
	// Incomplete marks a report cut short by a graceful drain; the
	// rendered report carries the INCOMPLETE banner and a resume hint.
	Incomplete bool `json:"incomplete,omitempty"`
}

// Finalize recomputes the aggregate fields from the arms: call after
// appending the last arm.
func (r *Report) Finalize() {
	r.Executed, r.FixedN, r.SavedPct = 0, 0, 0
	for _, a := range r.Arms {
		r.Executed += a.Executed
		r.FixedN += a.FixedN
		if a.Status == StatusIncomplete {
			r.Incomplete = true
		}
	}
	if r.FixedN > 0 {
		r.SavedPct = 100 * (1 - float64(r.Executed)/float64(r.FixedN))
	}
}

// ---- process-wide observability -------------------------------------

// Stats is a point-in-time view of process-wide adaptive-sampling
// activity, the scheduler's analogue of fleet.Read: the progress ledger
// (obs.Fleet, behind /status and the heartbeat) reads it to show how
// much work the stopping rules are avoiding while a matrix is still in
// flight.
type Stats struct {
	// Rounds counts barrier decisions taken.
	Rounds int64 `json:"rounds"`
	// Executed counts runs the scheduler actually submitted or
	// replayed; Saved counts runs the fixed-N baseline would have spent
	// that a settling decision avoided.
	Executed int64 `json:"executed"`
	Saved    int64 `json:"saved"`
}

var (
	roundCount    atomic.Int64
	executedCount atomic.Int64
	savedCount    atomic.Int64
)

// Read returns the process-wide adaptive-sampling counters.
func Read() Stats {
	return Stats{
		Rounds:   roundCount.Load(),
		Executed: executedCount.Load(),
		Saved:    savedCount.Load(),
	}
}

// CountRound records one barrier round that executed (or replayed) n
// runs.
func CountRound(n int) {
	roundCount.Add(1)
	executedCount.Add(int64(n))
}

// CountSettle records an arm settling with saved runs left unspent
// against its fixed-N baseline.
func CountSettle(saved int) {
	if saved > 0 {
		savedCount.Add(int64(saved))
	}
}
