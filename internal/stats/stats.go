package stats

import (
	"errors"
	"math"
)

// ErrNonFinite reports a NaN or Inf observation in an input sample (or
// an internal overflow that would surface as one in the result). The
// decision procedures (CI, ANOVA, t-tests) reject such inputs instead
// of propagating NaNs into reports — the contract the fuzz targets pin:
// error, never panic, and a nil error implies finite outputs.
var ErrNonFinite = errors.New("stats: non-finite observation (NaN or Inf)")

// checkFinite returns ErrNonFinite if any observation is NaN or ±Inf.
func checkFinite(samples ...[]float64) error {
	for _, xs := range samples {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return ErrNonFinite
			}
		}
	}
	return nil
}

// Mean returns the arithmetic mean; NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance; NaN for n < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation as a percentage: 100 * s/mean,
// the paper's §3.3 definition ("100 times the ratio of the standard
// deviation to the mean").
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return 100 * StdDev(xs) / m
}

// MinMax returns the extremes; NaNs for empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// RangeOfVariability returns 100*(max-min)/mean, the paper's §4.2 metric:
// "the difference between the maximum and the minimum runtimes, taken as
// a percentage of the mean".
func RangeOfVariability(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	min, max := MinMax(xs)
	return 100 * (max - min) / m
}

// Summary bundles the descriptive statistics reported throughout the
// paper's figures (mean with ±1σ error bars, min, max).
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	Max      float64
	CoV      float64 // percent
	RangePct float64 // percent of mean
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	min, max := MinMax(xs)
	return Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		StdDev:   StdDev(xs),
		Min:      min,
		Max:      max,
		CoV:      CoV(xs),
		RangePct: RangeOfVariability(xs),
	}
}

// ConfidenceInterval is a two-sided interval for a population mean.
type ConfidenceInterval struct {
	Mean       float64
	Lo, Hi     float64
	Confidence float64 // e.g. 0.95
	HalfWidth  float64
}

// Overlaps reports whether two intervals overlap. Per §5.1.1, if the
// intervals of two alternatives do NOT overlap, the wrong-conclusion
// probability is at most 1-p.
func (ci ConfidenceInterval) Overlaps(other ConfidenceInterval) bool {
	return ci.Lo <= other.Hi && other.Lo <= ci.Hi
}

// CI returns the confidence interval for the mean of xs at the given
// confidence probability, using the Student t quantile for n < 50 and the
// normal quantile otherwise, exactly as §5.1.1 prescribes:
//
//	ybar - t*s/sqrt(n) <= mean <= ybar + t*s/sqrt(n)
func CI(xs []float64, confidence float64) (ConfidenceInterval, error) {
	n := len(xs)
	if n < 2 {
		return ConfidenceInterval{}, ErrInsufficientData
	}
	// The negated form also rejects a NaN confidence, which would
	// otherwise bisect to a nonsense quantile and invert the interval.
	if !(confidence > 0 && confidence < 1) {
		return ConfidenceInterval{}, errInvalidConfidence
	}
	if err := checkFinite(xs); err != nil {
		return ConfidenceInterval{}, err
	}
	return interval(n, Mean(xs), StdDev(xs), confidence)
}

// interval is the one place an interval for a mean is built, for the
// batch CI and Stream.CI alike: the Student t quantile for n < 50 and
// the normal quantile otherwise, over n observations of the given mean
// and standard deviation. Finite observations can still overflow on the
// way here (a sum, a variance or mean±hw reaching ±Inf, and Inf-Inf =
// NaN after it); any non-finite part is ErrNonFinite, not an interval.
func interval(n int, mean, sd, confidence float64) (ConfidenceInterval, error) {
	p := 1 - (1-confidence)/2
	var t float64
	if n < 50 {
		t = TQuantile(p, float64(n-1))
	} else {
		t = NormQuantile(p)
	}
	hw := t * sd / math.Sqrt(float64(n))
	ci := ConfidenceInterval{
		Mean: mean, Lo: mean - hw, Hi: mean + hw,
		Confidence: confidence, HalfWidth: hw,
	}
	if err := checkFinite([]float64{mean, hw, ci.Lo, ci.Hi}); err != nil {
		return ConfidenceInterval{}, err
	}
	return ci, nil
}

var errInvalidConfidence = errors.New("stats: confidence must be in (0,1)")

// Alternative is a t-test's alternative hypothesis. It is fixed by the
// caller before the data are seen: a test whose direction follows the
// sample means rejects a true H0 twice as often as its level says.
type Alternative int

const (
	// TwoSided is H1: mu_a != mu_b.
	TwoSided Alternative = iota
	// Greater is H1: mu_a > mu_b, so argument order names the direction.
	Greater
)

// TTestResult holds the outcome of the paper's §5.1.2 two-sample test of
// H0: mu_a = mu_b against the alternative Alt.
type TTestResult struct {
	Statistic float64 // t = (ybar_a - ybar_b) / sqrt(s_a^2/n_a + s_b^2/n_b)
	DF        float64 // n_a+n_b-2 when n_a = n_b (the paper's form), Welch-Satterthwaite otherwise
	// P is the p-value under Alt: the probability, were H0 true, of a
	// statistic at least as extreme as this one.
	P   float64
	Alt Alternative
}

// Reject reports whether H0 is rejected at significance level alpha.
// Under Greater that is the conclusion mean(a) > mean(b); under
// TwoSided it is only that the means differ.
func (r TTestResult) Reject(alpha float64) bool { return r.P < alpha }

// TTest is the paper's §5.1.2 hypothesis test of H0: mu_a = mu_b against
// alt. With equal sample sizes it is the paper's form, df = 2n-2, whose
// statistic equals Welch's; with unequal sizes the degrees of freedom
// are Welch-Satterthwaite's. The two-sided p is 2*min(p+, 1-p+), where
// p+ is the upper-tail probability of the statistic. Samples of fewer
// than two observations are ErrInsufficientData; a NaN or Inf
// observation, or a mean or variance that overflows, is ErrNonFinite.
func TTest(a, b []float64, alt Alternative) (TTestResult, error) {
	na, nb := len(a), len(b)
	if na < 2 || nb < 2 {
		return TTestResult{}, ErrInsufficientData
	}
	diff := Mean(a) - Mean(b)
	sa, sb := Variance(a)/float64(na), Variance(b)/float64(nb)
	// A NaN or Inf observation makes diff non-finite, as an overflow does.
	if err := checkFinite([]float64{diff, sa + sb}); err != nil {
		return TTestResult{}, err
	}
	// With zero variance in both samples the statistic is ±Inf, or NaN
	// for equal means.
	res := TTestResult{Statistic: diff / math.Sqrt(sa+sb), DF: float64(na + nb - 2), Alt: alt}
	if na != nb && sa+sb > 0 {
		// Welch-Satterthwaite, over each side's share of the variance so
		// that tiny or huge variances neither underflow nor overflow, and
		// swapping a and b swaps the terms exactly.
		wa, wb := sa/(sa+sb), sb/(sa+sb)
		res.DF = 1 / (wa*wa/float64(na-1) + wb*wb/float64(nb-1))
	}
	upper := 1 - TCDF(res.Statistic, res.DF) // P(T >= t) under H0
	if math.IsNaN(res.Statistic) {
		res.Statistic, upper = 0, 0.5
	}
	res.P = upper
	if alt == TwoSided {
		res.P = min(1, 2*min(upper, 1-upper))
	}
	return res, nil
}

// WelchTTest is TTest(a, b, Greater), kept because the benchmark spine
// times it.
//
// Deprecated: call TTest with the alternative fixed in advance.
func WelchTTest(a, b []float64) (TTestResult, error) { return TTest(a, b, Greater) }

// SampleSizeRelErr returns the number of runs needed to bound the
// relative error of the estimated mean by r at the given confidence
// probability, per §5.1.1:
//
//	n = (t * S / (r * Ybar))^2
//
// cov is the coefficient of variation S/Ybar expressed as a FRACTION
// (e.g. 0.09 for 9%). The paper's worked example: r=0.04, 95% confidence,
// cov=0.09 => n ≈ 20.
func SampleSizeRelErr(cov, relErr, confidence float64) int {
	if cov <= 0 || relErr <= 0 || confidence <= 0 || confidence >= 1 {
		return 0
	}
	z := NormQuantile(1 - (1-confidence)/2)
	n := z * cov / relErr
	return int(math.Ceil(n * n))
}

// maxSampleSize caps SampleSizeRelErrT: a target that asks for more
// runs than this is answered with it.
const maxSampleSize = 1_000_000_000

// SampleSizeRelErrT is the t-consistent refinement of SampleSizeRelErr:
// it sizes the sample with the same quantile rule CI itself applies —
// Student t below 50 observations, normal at or above — instead of the
// normal quantile everywhere. The normal form understates small
// samples: it promises n runs, but the t interval those n runs produce
// is wider than r (for the paper's worked example, the 20 normal-sized
// runs achieve only ~4.3% where 4% was requested). This form returns
// the smallest n with ceil((t_{p,n-1} · cov / r)²) ≤ n, so the promised
// n is exactly the first sample size whose own t interval meets the
// target (the worked example becomes 22). SampleSizeRelErr itself is
// unchanged — it remains the paper's printed formula.
func SampleSizeRelErrT(cov, relErr, confidence float64) int {
	if cov <= 0 || relErr <= 0 || confidence <= 0 || confidence >= 1 {
		return 0
	}
	p := 1 - (1-confidence)/2
	implied := func(n int) int {
		var q float64
		if n < 50 {
			q = TQuantile(p, float64(n-1))
		} else {
			q = NormQuantile(p)
		}
		x := q * cov / relErr
		nn := math.Ceil(x * x)
		if math.IsNaN(nn) || nn > maxSampleSize {
			return maxSampleSize // degenerate quantile or astronomic target
		}
		return int(nn)
	}
	// The normal form is the floor: no quantile is below the normal one,
	// so no n below it implies n or fewer runs. A CI needs two.
	lo := max(min(SampleSizeRelErr(cov, relErr, confidence), maxSampleSize), 2)
	// implied never grows with n (t narrows as df grows), so implied(n) ≤
	// n holds from the answer on, and at hi = implied(lo) ≥ lo: bisect
	// for the first n it holds at.
	hi := implied(lo)
	for lo < hi {
		if mid := lo + (hi-lo)/2; implied(mid) <= mid {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// MinRunsProjected estimates, from pilot estimates of the two means and a
// common standard deviation, how many runs per configuration are needed
// for the one-sided t-test to reject at level alpha — the planning form
// used to produce the paper's Table 5. It assumes the sample means and
// variances equal the pilot estimates and solves for n: the least n in
// [2, 10^6] at which the test rejects, or 0 if none does.
func MinRunsProjected(meanA, meanB, std float64, alpha float64) int {
	if meanA <= meanB || std <= 0 || alpha <= 0 || alpha >= 0.5 {
		return 0
	}
	rejects := func(n int) bool {
		t := (meanA - meanB) / math.Sqrt(2*std*std/float64(n))
		return t > TQuantile(1-alpha, float64(2*n-2))
	}
	// The statistic grows with n and the critical value falls, so rejects
	// is monotone: double up to the first rejecting power, then bisect
	// between it and the last one that did not (n = 1 never does).
	const limit = 1_000_000
	lo, hi := 1, 2
	for !rejects(hi) {
		if hi == limit {
			return 0
		}
		lo, hi = hi, min(2*hi, limit)
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; rejects(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
