// Package precision is the streaming precision tracker behind the
// precision observatory: a thread-safe aggregation of per-run
// cycles-per-transaction observations into live §5.1.1 statistics —
// running mean, CoV, the confidence interval's relative half-width
// ("achieved precision"), and how many more runs the sample-size
// formula says are needed.
//
// The tracker lives deliberately *outside* the determinism wall. It is
// fed from fleet completion hooks (core.Resilience.Observe), which
// fire in host completion order, and it feeds nothing back into the
// simulation — it is a pure observer, so byte-identical output holds
// at any fleet width with the tracker enabled. Per-key statistics are
// order-independent up to floating-point rounding; the per-key history
// (half-width after each run) does follow completion order and is
// therefore a live-surface-only artifact, never part of a report that
// must replay byte-identically.
//
// Consumers: the /precision JSON endpoint and varsim_precision_*
// gauges (internal/obs), the dashboard convergence panel, the stderr
// heartbeat column, report.WritePrecision, and the `varsim precision`
// verb that rebuilds a tracker from a result journal post-hoc.
package precision

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"varsim/internal/sampling"
	"varsim/internal/stats"
)

// maxHistory bounds the per-key half-width history kept for the
// dashboard sparkline. Precision work targets tens of runs per
// configuration; the bound only matters if a tracker is left attached
// to an enormous sweep, where the tail (the converged end) is the
// interesting part anyway.
const maxHistory = 512

// key identifies one tracked sample: an experiment's space and the
// configuration hash within it.
type key struct {
	Experiment string
	ConfigHash string
}

// entry is one key's accumulator state.
type entry struct {
	stream   stats.Stream
	history  []float64 // relative half-width (pct) after each accepted run
	rejected int       // non-finite observations dropped
}

// Tracker accumulates cycles-per-transaction observations per
// (experiment, config hash). All methods are safe for concurrent use
// and safe on a nil receiver (no-ops / zero values), so a live server
// with no tracker wired serves an empty report.
type Tracker struct {
	mu         sync.Mutex
	relErr     float64
	confidence float64
	byKey      map[key]*entry
}

// New builds a tracker targeting the given relative error (fraction,
// e.g. 0.04) at the given confidence. Non-positive arguments select
// the sampling package's defaults, the paper's worked example.
func New(relErr, confidence float64) *Tracker {
	if relErr <= 0 {
		relErr = sampling.DefaultRelErr
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = sampling.DefaultConfidence
	}
	return &Tracker{relErr: relErr, confidence: confidence, byKey: map[key]*entry{}}
}

// Observe folds one run's cycles per transaction into the (experiment,
// configHash) sample. Non-finite values are counted and dropped — they
// must never reach the JSON surfaces — and reported through the row's
// Rejected count. Returns stats.ErrNonFinite for
// them so direct callers can log; the fleet hook path ignores the
// return, matching journal.Append's fire-and-forget style.
func (t *Tracker) Observe(experiment, configHash string, v float64) error {
	if t == nil {
		return nil
	}
	k := key{experiment, configHash}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.byKey[k]
	if e == nil {
		e = &entry{}
		t.byKey[k] = e
	}
	if err := e.stream.Add(v); err != nil {
		e.rejected++
		return err
	}
	if rel, ok := e.stream.RelHalfWidthPct(t.confidence); ok {
		if len(e.history) == maxHistory {
			copy(e.history, e.history[1:])
			e.history = e.history[:maxHistory-1]
		}
		e.history = append(e.history, rel)
	}
	return nil
}

// Row is one key's slice of a precision report. Float fields are
// populated only when defined and finite — a row that cannot support a
// confidence interval yet is marked Insufficient instead of carrying
// NaNs (which json.Marshal rejects outright).
type Row struct {
	Experiment string `json:"experiment"`
	ConfigHash string `json:"config_hash"`
	N          int    `json:"n"`
	Rejected   int    `json:"rejected,omitempty"` // non-finite observations dropped
	// Insufficient marks a row with no confidence interval yet: fewer
	// than two runs, or an accumulator pushed non-finite. Its float
	// fields are zero, never NaN.
	Insufficient bool    `json:"insufficient,omitempty"`
	Mean         float64 `json:"mean,omitempty"`
	CoVPct       float64 `json:"cov_pct,omitempty"`
	HalfWidth    float64 `json:"half_width,omitempty"`
	// RelHalfWidthPct is the achieved precision: the CI half-width as a
	// percentage of the mean, directly comparable to the requested
	// relative error.
	RelHalfWidthPct float64 `json:"rel_half_width_pct,omitempty"`
	// RunsNeeded is the §5.1.1 total sample size implied by the current
	// CoV (t-consistent form); RunsToGo is how many of those are still
	// missing. Converged means the achieved precision already meets the
	// requested target.
	RunsNeeded int  `json:"runs_needed,omitempty"`
	RunsToGo   int  `json:"runs_to_go,omitempty"`
	Converged  bool `json:"converged,omitempty"`
	// History is the relative half-width (pct) after each completed run
	// — the dashboard's convergence sparkline. Entries follow run
	// *completion* order, so the trajectory is a live-surface artifact;
	// the terminal value matches RelHalfWidthPct.
	History []float64 `json:"history,omitempty"`
}

// Report is the /precision payload: the requested target plus one row
// per tracked (experiment, config), sorted by key so the rendering is
// stable regardless of observation order.
type Report struct {
	RelErr     float64 `json:"rel_err"`
	Confidence float64 `json:"confidence"`
	Rows       []Row   `json:"rows"`
}

// Report snapshots every tracked key into a sorted, JSON-safe report.
func (t *Tracker) Report() Report {
	rep := Report{Rows: []Row{}}
	if t == nil {
		return rep
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rep.RelErr = t.relErr
	rep.Confidence = t.confidence
	keys := make([]key, 0, len(t.byKey))
	//varsim:allow maporder key collection only; sorted below
	for k := range t.byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		return a.ConfigHash < b.ConfigHash
	})
	for _, k := range keys {
		rep.Rows = append(rep.Rows, t.byKey[k].row(k, t.relErr, t.confidence))
	}
	return rep
}

// row renders one entry under the tracker lock.
func (e *entry) row(k key, relErr, confidence float64) Row {
	r := Row{
		Experiment: k.Experiment,
		ConfigHash: k.ConfigHash,
		N:          e.stream.N(),
		Rejected:   e.rejected,
		History:    append([]float64(nil), e.history...),
	}
	if m := e.stream.Mean(); finite(m) {
		r.Mean = m
	}
	if cov := e.stream.CoV(); finite(cov) {
		r.CoVPct = cov
	}
	ci, err := e.stream.CI(confidence)
	rel, relOK := e.stream.RelHalfWidthPct(confidence)
	if err != nil || !relOK {
		r.Insufficient = true
		return r
	}
	r.HalfWidth = ci.HalfWidth
	r.RelHalfWidthPct = rel
	r.Converged = rel <= 100*relErr
	if need := e.stream.RunsNeeded(relErr, confidence); need > 0 {
		r.RunsNeeded = need
		if toGo := need - r.N; toGo > 0 {
			r.RunsToGo = toGo
		}
	}
	return r
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Summary renders the heartbeat fragment: how many tracked samples
// meet the requested precision, and the worst achieved-vs-requested
// pair. Empty string when nothing is tracked (or on a nil tracker), so
// the heartbeat line is unchanged until precision data exists.
func (t *Tracker) Summary() string {
	rep := t.Report()
	if len(rep.Rows) == 0 {
		return ""
	}
	converged, measurable := 0, 0
	worst := math.Inf(-1)
	worstKey := ""
	for _, r := range rep.Rows {
		if r.Insufficient {
			continue
		}
		measurable++
		if r.Converged {
			converged++
		}
		if r.RelHalfWidthPct > worst {
			worst = r.RelHalfWidthPct
			worstKey = r.Experiment
		}
	}
	if measurable == 0 {
		return fmt.Sprintf("precision 0/%d measurable", len(rep.Rows))
	}
	s := fmt.Sprintf("precision %d/%d at ±%.3g%%", converged, len(rep.Rows), 100*rep.RelErr)
	if worstKey != "" {
		s += fmt.Sprintf(" (worst ±%.2g%% %s)", worst, worstKey)
	}
	return s
}
