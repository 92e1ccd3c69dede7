package stats

import "math"

// Stream is a one-pass (Welford) accumulator of a sample's mean and
// variance: the streaming counterpart of Mean/Variance/CoV/CI for
// observations that arrive run by run, long before a space is complete.
// It powers the precision observatory (internal/precision): after each
// settled run the tracker asks the stream for its current confidence
// interval and how many more runs §5.1.1 says are needed.
//
// The zero value is an empty stream, ready to use. Stream is a plain
// value (no pointers, no locks) — callers that share one across
// goroutines must serialize access themselves.
//
// Numerically the recurrence is Welford's: each Add updates the running
// mean and the sum of squared deviations (m2) without ever subtracting
// two large near-equal sums, so a long stream of close observations —
// exactly what converged simulation runs produce — does not cancel
// catastrophically the way the textbook sum/sum-of-squares form does.
type Stream struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one observation into the stream. Non-finite observations
// are rejected with ErrNonFinite and leave the stream unchanged — the
// same input contract as the batch procedures (CI, ANOVA).
func (s *Stream) Add(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return ErrNonFinite
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	return nil
}

// N returns the number of accepted observations.
func (s *Stream) N() int { return s.n }

// Mean returns the running mean; NaN for an empty stream, matching
// Mean(nil).
func (s *Stream) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Variance returns the unbiased (n-1) sample variance; NaN for n < 2,
// matching Variance.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CoV returns the coefficient of variation as a percentage
// (100 * s/mean, the paper's §3.3 definition); NaN when the mean is
// zero, matching CoV.
func (s *Stream) CoV() float64 {
	m := s.Mean()
	if m == 0 {
		return math.NaN()
	}
	return 100 * s.StdDev() / m
}

// CI returns the confidence interval for the stream's mean, using
// exactly the batch CI's quantile rule — Student t below 50
// observations, normal at or above — and the same error contract:
// ErrInsufficientData under two observations, errInvalidConfidence
// outside (0,1), ErrNonFinite if internal accumulation overflowed.
// Both forms build the interval in one routine (interval), so the
// streaming interval equals CI(xs, confidence) over the same sample to
// the floating-point accumulation order of mean and deviation.
func (s *Stream) CI(confidence float64) (ConfidenceInterval, error) {
	if s.n < 2 {
		return ConfidenceInterval{}, ErrInsufficientData
	}
	if !(confidence > 0 && confidence < 1) { // also rejects NaN
		return ConfidenceInterval{}, errInvalidConfidence
	}
	return interval(s.n, s.Mean(), s.StdDev(), confidence)
}

// RelHalfWidthPct returns the achieved precision as a percentage: the
// CI half-width relative to the mean (100 * hw/|mean|), the streaming
// analogue of the paper's relative error r. An error from CI, or a
// zero mean, yields an error/NaN-free signal: ok=false.
func (s *Stream) RelHalfWidthPct(confidence float64) (float64, bool) {
	ci, err := s.CI(confidence)
	if err != nil || ci.Mean == 0 {
		return 0, false
	}
	rel := 100 * ci.HalfWidth / math.Abs(ci.Mean)
	if math.IsNaN(rel) || math.IsInf(rel, 0) {
		return 0, false
	}
	return rel, true
}

// RunsNeeded estimates, from the stream's current CoV, the total number
// of runs §5.1.1 requires to bound the mean's relative error by relErr
// at the given confidence — the t-consistent form (SampleSizeRelErrT),
// so the estimate agrees with the quantile CI itself uses at small n.
// Returns 0 when the stream cannot yet support the estimate (n < 2, or
// a zero/non-finite CoV).
func (s *Stream) RunsNeeded(relErr, confidence float64) int {
	cov := s.CoV() / 100 // SampleSize* take the CoV as a fraction
	if math.IsNaN(cov) || math.IsInf(cov, 0) {
		return 0
	}
	if cov < 0 {
		cov = -cov // negative means (e.g. deltas) still size by spread
	}
	return SampleSizeRelErrT(cov, relErr, confidence)
}
