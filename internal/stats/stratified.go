package stats

import "math"

// StratifiedCI computes the confidence interval for an equal-weight
// stratified mean — the estimator behind checkpoint-stratified
// replication (§5.2 meets §5.1.1): each stratum is the run sample at
// one time-sample checkpoint, the strata partition the workload's
// lifetime evenly, and the quantity of interest is the average of the
// per-stratum means,
//
//	x̄_st = (1/H) Σ_h x̄_h
//	Var(x̄_st) = (1/H²) Σ_h s_h²/n_h
//
// which is exactly the stratified-sampling variance with proportional
// stratum weights W_h = 1/H. The interval uses the Student t quantile
// with the Welch–Satterthwaite effective degrees of freedom
//
//	df = (Σ_h s_h²/n_h)² / Σ_h (s_h²/n_h)²/(n_h-1)
//
// (the approximation TTest applies to an unequal-size two-sample
// denominator), switching to the normal quantile once df reaches 50 —
// the batch CI's quantile rule.
//
// Every stratum needs at least two observations (ErrInsufficientData
// otherwise); non-finite observations are rejected with ErrNonFinite,
// and confidence must lie in (0,1).
func StratifiedCI(strata [][]float64, confidence float64) (ConfidenceInterval, error) {
	if !(confidence > 0 && confidence < 1) { // also rejects NaN
		return ConfidenceInterval{}, errInvalidConfidence
	}
	h := len(strata)
	if h == 0 {
		return ConfidenceInterval{}, ErrInsufficientData
	}
	var meanSum, varSum, dfDenom float64
	for _, xs := range strata {
		if len(xs) < 2 {
			return ConfidenceInterval{}, ErrInsufficientData
		}
		var s Stream
		for _, x := range xs {
			if err := s.Add(x); err != nil {
				return ConfidenceInterval{}, err
			}
		}
		meanSum += s.Mean()
		term := s.Variance() / float64(s.N())
		varSum += term
		dfDenom += term * term / float64(s.N()-1)
	}
	mean := meanSum / float64(h)
	se := math.Sqrt(varSum) / float64(h)
	// All strata degenerate (zero variance): the estimator is exact.
	var q float64
	if varSum > 0 {
		df := varSum * varSum / dfDenom
		p := 1 - (1-confidence)/2
		if df < 50 {
			q = TQuantile(p, df)
		} else {
			q = NormQuantile(p)
		}
	}
	hw := q * se
	if math.IsNaN(mean) || math.IsNaN(hw) || math.IsInf(hw, 0) {
		return ConfidenceInterval{}, ErrNonFinite
	}
	return ConfidenceInterval{
		Mean: mean, Lo: mean - hw, Hi: mean + hw,
		Confidence: confidence, HalfWidth: hw,
	}, nil
}
