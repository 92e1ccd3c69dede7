// Package sampling is the adaptive run scheduler: it decides, at
// deterministic round barriers, how many more perturbed runs each
// configuration needs — stopping a lone configuration once its
// confidence interval meets the requested relative error (§5.1.1), and
// a matrix's configurations once a t-test decides each against the
// best, or at the budget.
//
// The package deliberately contains no execution machinery: Decide,
// its K-stratum form DecideStrata, and DecideMatrix are pure functions
// of the index-ordered merged values a round produced, so the same
// inputs yield the same decision at any fleet width. The one round
// loop, internal/core/adaptive.go, takes DecideMatrix or DecideStrata
// as its barrier rule — each returns one decision per arm, a matrix's
// configuration or a time sample's stratum — and journals every
// decision under the arm it settles (journal.StatusDecision), so a
// -resume replays the interrupted run's exact choices under the
// determinism contract of docs/SAMPLING.md.
package sampling

import (
	"errors"
	"fmt"
	"math"

	"varsim/internal/stats"
)

// Defaults for a zero Target, matching the precision observatory's
// worked-example target (4% relative error at 95% confidence).
const (
	DefaultRelErr     = 0.04
	DefaultConfidence = 0.95
	DefaultMinRuns    = 4
	DefaultMaxRuns    = 64
	DefaultRoundSize  = 4
)

// Target is the requested precision and run budget for an adaptive
// experiment. The budget is per arm — a configuration of a matrix, a
// stratum of a time sample — and every arm spends to its own: nothing
// is shared across them. The zero value selects the package defaults;
// Targets serialize into experiment spec files so a -resume pins the
// exact stopping rule the interrupted run used.
type Target struct {
	// RelErr is the tolerated relative error of the mean (fraction,
	// e.g. 0.04 for ±4%), the paper's r. It stops no matrix arm.
	RelErr float64 `json:"rel_err"`
	// Confidence is the CI confidence level, e.g. 0.95.
	Confidence float64 `json:"confidence"`
	// MinRuns is the pilot size: no stop decision is taken before this
	// many runs, however tight the sample looks (a two-run CI is not
	// evidence). At least 2 — a CI needs two observations.
	MinRuns int `json:"min_runs"`
	// MaxRuns is the hard per-configuration budget: once reached the
	// arm settles with ActionBudget whether or not it converged.
	MaxRuns int `json:"max_runs"`
	// RoundSize caps how many runs one barrier round may add to an arm
	// or stratum, so a noisy pilot cannot commit the whole budget in
	// one step.
	RoundSize int `json:"round_size"`
}

// Normalize fills zero fields with the package defaults and clamps the
// rest into a usable range.
func (t Target) Normalize() Target {
	if t.RelErr <= 0 {
		t.RelErr = DefaultRelErr
	}
	if t.Confidence <= 0 || t.Confidence >= 1 {
		t.Confidence = DefaultConfidence
	}
	if t.MinRuns <= 0 {
		t.MinRuns = DefaultMinRuns
	}
	if t.MinRuns < 2 {
		t.MinRuns = 2
	}
	if t.MaxRuns <= 0 {
		t.MaxRuns = DefaultMaxRuns
	}
	if t.MaxRuns < t.MinRuns {
		t.MaxRuns = t.MinRuns
	}
	if t.RoundSize <= 0 {
		t.RoundSize = DefaultRoundSize
	}
	return t
}

// Action is what a barrier decision tells the driver to do with an arm.
type Action string

const (
	// ActionContinue schedules Decision.Next more runs.
	ActionContinue Action = "continue"
	// ActionStop settles the arm: the requested precision is achieved.
	ActionStop Action = "stop"
	// ActionBudget settles the arm at its run budget, converged or not.
	ActionBudget Action = "budget"
	// ActionDecided settles a matrix arm whose comparison with the best
	// arm is decided (DecideMatrix).
	ActionDecided Action = "decided"
)

// Decision is one barrier's verdict for one arm — the unit the journal
// records (journal.StatusDecision) and a -resume replays byte-for-byte.
type Decision struct {
	// Round is the barrier index (0 = after the pilot round).
	Round int `json:"round"`
	// N is the sample size the decision was taken over.
	N int `json:"n"`
	// Action is the verdict.
	Action Action `json:"action"`
	// RelPct is the achieved precision at the barrier: the CI
	// half-width as a percentage of the mean. 0 when the sample cannot
	// support an interval yet.
	RelPct float64 `json:"rel_pct,omitempty"`
	// Needed is the §5.1.1 t-consistent total sample size implied by
	// the CoV at the barrier (stats.SampleSizeRelErrT); 0 when the
	// sample cannot support the estimate.
	Needed int `json:"needed,omitempty"`
	// Next is the size of the arm's next round (ActionContinue only).
	Next int `json:"next,omitempty"`
}

// Validate checks the structural invariants the decision codec
// enforces: the journal must never carry a decision the drivers could
// not have produced.
func (d Decision) Validate() error {
	switch d.Action {
	case ActionContinue:
		if d.Next < 1 {
			return errors.New("sampling: continue decision needs a positive next round")
		}
	case ActionStop, ActionBudget, ActionDecided:
		if d.Next != 0 {
			return fmt.Errorf("sampling: %s decision cannot schedule more runs", d.Action)
		}
	default:
		return fmt.Errorf("sampling: unknown decision action %q", d.Action)
	}
	if d.Round < 0 {
		return errors.New("sampling: negative round")
	}
	if d.N < 0 {
		return errors.New("sampling: negative sample size")
	}
	if d.Needed < 0 {
		return errors.New("sampling: negative needed estimate")
	}
	if math.IsNaN(d.RelPct) || math.IsInf(d.RelPct, 0) || d.RelPct < 0 {
		return errors.New("sampling: rel_pct must be finite and non-negative")
	}
	return nil
}

// Decide is the stopping rule, evaluated at a round barrier over the
// arm's index-ordered values so far. It stops once the sample is both
// past the pilot floor (MinRuns) and converged — the achieved relative
// half-width meets RelErr at the target confidence, which by the
// t-quantile fixed point is exactly when N has reached the
// SampleSizeRelErrT estimate — and settles with ActionBudget at
// MaxRuns otherwise. A continuing arm gets a next round sized toward
// the Needed estimate, capped by RoundSize and the remaining budget.
// It is the one-stratum DecideStrata, pure in (values, round, t).
func Decide(values []float64, round int, t Target) Decision {
	return decideStrata([][]float64{values}, round, t)
}

// DecideStrata is Decide over an arm sampled in K strata — the run
// samples at each time-sample checkpoint (§5.2) — decided jointly and
// filed per stratum: like DecideMatrix it returns one decision per
// stratum, the zero Decision for strata not live. Every live stratum
// gets the same verdict, and every Target count is per stratum:
// MinRuns is a floor on each stratum's effective runs, MaxRuns each
// stratum's cap and RoundSize each stratum's step, so each Next is
// that stratum's own round and strata that start level stay level. N
// and Needed count every stratum's runs.
//
// Only the interval depends on K. One stratum takes the §5.1.1 interval
// and its t-consistent Needed (stats.Stream); K ≥ 2 take the
// equal-weight stratified mean's interval (stats.StratifiedCI), whose
// half-width shrinks as 1/√n under even growth, so Needed scales the
// current total by (achieved/target)². No strata settle on budget at
// once: there is nothing to sample. Pure in (strata, live, round, t).
func DecideStrata(strata [][]float64, live []bool, round int, t Target) []Decision {
	d, ds := decideStrata(strata, round, t), make([]Decision, len(strata))
	for i := range ds {
		if live[i] {
			ds[i] = d
		}
	}
	return ds
}

// decideStrata is DecideStrata's one verdict, which Decide takes
// without allocating.
func decideStrata(strata [][]float64, round int, t Target) Decision {
	t = t.Normalize()
	k := len(strata)
	d := Decision{Round: round, Action: ActionContinue}
	minN, minEff := math.MaxInt, math.MaxInt
	var s stats.Stream // the last stratum's: with one, the whole sample's
	for _, xs := range strata {
		s = stats.Stream{}
		for _, v := range xs {
			// Non-finite values shrink the effective sample rather than
			// poisoning the interval — the Stream's input contract.
			s.Add(v) //nolint:errcheck
		}
		d.N += len(xs)
		minN, minEff = min(minN, len(xs)), min(minEff, s.N())
	}
	var rel float64
	var relOK bool
	if k == 1 {
		rel, relOK = s.RelHalfWidthPct(t.Confidence)
		d.Needed = s.RunsNeeded(t.RelErr, t.Confidence)
	} else if ci, err := stats.StratifiedCI(strata, t.Confidence); err == nil && ci.Mean != 0 {
		rel, relOK = math.Abs(100*ci.HalfWidth/ci.Mean), true
		if ratio := rel / (100 * t.RelErr); ratio > 1 {
			d.Needed = int(float64(d.N)*ratio*ratio) + 1
		}
	}
	d.RelPct = rel
	converged := relOK && rel <= 100*t.RelErr
	// The pilot floor counts *effective* observations: the Stream drops
	// non-finite values, and a sample padded with them must not stop on
	// an interval supported by fewer than MinRuns real runs.
	switch {
	case minEff >= t.MinRuns && converged:
		d.Action = ActionStop
	case minN >= t.MaxRuns:
		d.Action = ActionBudget
	default:
		d.Next = nextChunk(minN, (d.Needed+k-1)/k, t.RoundSize, t.MaxRuns)
	}
	return d
}

// nextChunk sizes a continuing arm's next round: toward the remaining
// gap to the needed estimate, at least 1, at most cap runs per round,
// and never past the budget.
func nextChunk(n, needed, roundSize, maxRuns int) int {
	want := roundSize
	if needed > n && needed-n < want {
		want = needed - n
	}
	if want < 1 {
		want = 1
	}
	if rest := maxRuns - n; want > rest {
		want = rest
	}
	return want
}
