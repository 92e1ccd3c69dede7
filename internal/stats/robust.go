package stats

import (
	"math"
	"sort"

	"varsim/internal/rng"
)

// The paper's confidence intervals and t-tests assume approximately
// normal populations. This file adds the diagnostics and robust
// alternatives an experimenter needs when that assumption is in doubt:
// higher moments, a Jarque-Bera-style normality check, percentiles, and
// bootstrap confidence intervals.

// Skewness returns the adjusted Fisher-Pearson sample skewness.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return math.NaN()
	}
	m := Mean(xs)
	s := StdDev(xs)
	if s == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		d := (x - m) / s
		sum += d * d * d
	}
	return n / ((n - 1) * (n - 2)) * sum
}

// Kurtosis returns the sample excess kurtosis (normal = 0).
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return math.NaN()
	}
	m := Mean(xs)
	s := StdDev(xs)
	if s == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		d := (x - m) / s
		sum += d * d * d * d
	}
	g2 := (n*(n+1))/((n-1)*(n-2)*(n-3))*sum - 3*(n-1)*(n-1)/((n-2)*(n-3))
	return g2
}

// NormalityResult is the outcome of the Jarque-Bera test of H0: the
// sample comes from a normal distribution.
type NormalityResult struct {
	JB       float64 // n/6 * (skew^2 + kurt^2/4); ~ chi-squared(2) under H0
	Skewness float64
	Kurtosis float64
	P        float64 // approximate p-value
}

// PlausiblyNormal reports whether normality survives at level alpha.
func (r NormalityResult) PlausiblyNormal(alpha float64) bool { return r.P >= alpha }

// JarqueBera tests the sample for normality. The chi-squared(2) CDF is
// exact: P(X <= x) = 1 - exp(-x/2).
func JarqueBera(xs []float64) (NormalityResult, error) {
	if len(xs) < 8 {
		return NormalityResult{}, ErrInsufficientData
	}
	sk := Skewness(xs)
	ku := Kurtosis(xs)
	jb := float64(len(xs)) / 6 * (sk*sk + ku*ku/4)
	return NormalityResult{
		JB: jb, Skewness: sk, Kurtosis: ku,
		P: math.Exp(-jb / 2),
	}, nil
}

// Percentile returns the p-th percentile (0..100) by linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// BootstrapCI returns a percentile-bootstrap confidence interval for the
// mean: resamples runs with replacement and takes the empirical
// (alpha/2, 1-alpha/2) quantiles of the resampled means. It makes no
// normality assumption, at the cost of requiring a seed (deterministic
// for a given seed) and more computation.
func BootstrapCI(xs []float64, confidence float64, resamples int, seed uint64) (ConfidenceInterval, error) {
	if len(xs) < 2 {
		return ConfidenceInterval{}, ErrInsufficientData
	}
	if confidence <= 0 || confidence >= 1 {
		return ConfidenceInterval{}, errInvalidConfidence
	}
	if resamples < 100 {
		resamples = 100
	}
	r := rng.New(seed)
	means := make([]float64, resamples)
	for b := 0; b < resamples; b++ {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[r.Intn(len(xs))]
		}
		means[b] = sum / float64(len(xs))
	}
	alpha := 1 - confidence
	lo := Percentile(means, 100*alpha/2)
	hi := Percentile(means, 100*(1-alpha/2))
	m := Mean(xs)
	return ConfidenceInterval{
		Mean: m, Lo: lo, Hi: hi,
		Confidence: confidence, HalfWidth: (hi - lo) / 2,
	}, nil
}
