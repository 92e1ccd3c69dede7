package stats

import (
	"errors"
	"math"
	"testing"
	"time"

	"varsim/internal/rng"
)

// almostEq reports |a-b| <= tol scaled to the larger magnitude, with
// exact NaN agreement.
func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// TestStreamMatchesBatch is the satellite's property test: over random
// samples and random permutations of each, the streaming accumulator's
// mean, variance, CoV and full confidence interval must match the
// batch forms to 1e-9 (relative), at several sizes spanning the t/normal
// quantile switch at n=50.
func TestStreamMatchesBatch(t *testing.T) {
	const tol = 1e-9
	r := rng.New(0xBEEF)
	for _, n := range []int{2, 3, 7, 20, 49, 50, 51, 120} {
		for trial := 0; trial < 20; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Norm(250, 40)
			}
			// A fresh random permutation per trial: the stream must not
			// care what order the fleet's runs settle in.
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
				j := r.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			var s Stream
			for _, i := range perm {
				if err := s.Add(xs[i]); err != nil {
					t.Fatalf("Add(%v): %v", xs[i], err)
				}
			}
			if s.N() != n {
				t.Fatalf("N = %d, want %d", s.N(), n)
			}
			if !almostEq(s.Mean(), Mean(xs), tol) {
				t.Errorf("n=%d: stream mean %v != batch %v", n, s.Mean(), Mean(xs))
			}
			if !almostEq(s.Variance(), Variance(xs), tol) {
				t.Errorf("n=%d: stream variance %v != batch %v", n, s.Variance(), Variance(xs))
			}
			if !almostEq(s.CoV(), CoV(xs), tol) {
				t.Errorf("n=%d: stream CoV %v != batch %v", n, s.CoV(), CoV(xs))
			}
			for _, conf := range []float64{0.90, 0.95, 0.99} {
				want, werr := CI(xs, conf)
				got, gerr := s.CI(conf)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("n=%d conf=%v: stream CI err %v, batch %v", n, conf, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if !almostEq(got.Mean, want.Mean, tol) || !almostEq(got.HalfWidth, want.HalfWidth, tol) ||
					!almostEq(got.Lo, want.Lo, tol) || !almostEq(got.Hi, want.Hi, tol) {
					t.Errorf("n=%d conf=%v: stream CI %+v != batch %+v", n, conf, got, want)
				}
			}
		}
	}
}

// TestStreamErrorContract pins the streaming accumulator's edge cases
// against the batch CI contract.
func TestStreamErrorContract(t *testing.T) {
	var s Stream
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Variance()) || !math.IsNaN(s.CoV()) {
		t.Errorf("empty stream: Mean/Variance/CoV should be NaN, got %v/%v/%v", s.Mean(), s.Variance(), s.CoV())
	}
	if _, err := s.CI(0.95); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("empty stream CI error = %v, want ErrInsufficientData", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.Add(bad); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Add(%v) error = %v, want ErrNonFinite", bad, err)
		}
	}
	if s.N() != 0 {
		t.Errorf("rejected observations changed N to %d", s.N())
	}
	if err := s.Add(10); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := s.CI(0.95); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("n=1 CI error = %v, want ErrInsufficientData", err)
	}
	if err := s.Add(12); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := s.CI(1.5); err == nil {
		t.Error("CI accepted confidence 1.5")
	}
	if _, err := s.CI(0); err == nil {
		t.Error("CI accepted confidence 0")
	}
	if ci, err := s.CI(0.95); err != nil || ci.Lo > ci.Hi {
		t.Errorf("CI(0.95) = %+v, %v", ci, err)
	}
	// Zero-mean stream: CoV undefined, relative half-width unavailable.
	var z Stream
	z.Add(-1)
	z.Add(1)
	if !math.IsNaN(z.CoV()) {
		t.Errorf("zero-mean CoV = %v, want NaN", z.CoV())
	}
	if _, ok := z.RelHalfWidthPct(0.95); ok {
		t.Error("zero-mean RelHalfWidthPct reported ok")
	}
	if got := z.RunsNeeded(0.04, 0.95); got != 0 {
		t.Errorf("zero-mean RunsNeeded = %d, want 0", got)
	}
}

// TestOverflowedIntervalIsAnError pins batch ≡ stream on finite samples
// whose variance overflows: neither form may hand back an interval of
// ±Inf with a nil error.
func TestOverflowedIntervalIsAnError(t *testing.T) {
	for _, xs := range [][]float64{{1e200, -1e200, 3}, {1e160, -1e160}} {
		var s Stream
		for _, x := range xs {
			if err := s.Add(x); err != nil {
				t.Fatalf("Add(%v): %v", x, err)
			}
		}
		ci, err := CI(xs, 0.95)
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("CI(%v) = %+v, %v; want ErrNonFinite", xs, ci, err)
		}
		if sci, serr := s.CI(0.95); !errors.Is(serr, ErrNonFinite) {
			t.Errorf("Stream.CI over %v = %+v, %v; want ErrNonFinite", xs, sci, serr)
		}
	}
}

// TestSampleSizeWorkedExample pins the paper's §5.1.1 worked example on
// both sizing forms: the printed normal-quantile formula gives n ≈ 20
// for r=0.04 at 95% confidence with CoV 0.09, and the t-consistent
// refinement — sized with the same quantile the CI of those runs will
// actually use — asks for 22.
func TestSampleSizeWorkedExample(t *testing.T) {
	if got := SampleSizeRelErr(0.09, 0.04, 0.95); got != 20 {
		t.Errorf("SampleSizeRelErr(0.09, 0.04, 0.95) = %d, want 20 (the paper's worked example)", got)
	}
	if got := SampleSizeRelErrT(0.09, 0.04, 0.95); got != 22 {
		t.Errorf("SampleSizeRelErrT(0.09, 0.04, 0.95) = %d, want 22", got)
	}
}

// TestSampleSizeTConsistency checks the fixed-point property across a
// grid of targets: the returned n is self-consistent (its own t
// quantile implies no more than n runs) and minimal (n-1 would imply
// more than n-1), and never below the normal form that seeds it.
func TestSampleSizeTConsistency(t *testing.T) {
	implied := func(n int, cov, relErr, conf float64) int {
		p := 1 - (1-conf)/2
		var q float64
		if n < 50 {
			q = TQuantile(p, float64(n-1))
		} else {
			q = NormQuantile(p)
		}
		x := q * cov / relErr
		return int(math.Ceil(x * x))
	}
	for _, cov := range []float64{0.01, 0.05, 0.09, 0.2, 0.5} {
		for _, relErr := range []float64{0.01, 0.04, 0.1} {
			for _, conf := range []float64{0.90, 0.95, 0.99} {
				n := SampleSizeRelErrT(cov, relErr, conf)
				if n < 2 {
					t.Fatalf("cov=%v r=%v conf=%v: n=%d < 2", cov, relErr, conf, n)
				}
				if got := implied(n, cov, relErr, conf); got > n {
					t.Errorf("cov=%v r=%v conf=%v: n=%d not self-consistent (implies %d)", cov, relErr, conf, n, got)
				}
				if n > 2 {
					if got := implied(n-1, cov, relErr, conf); got <= n-1 {
						t.Errorf("cov=%v r=%v conf=%v: n=%d not minimal (%d already suffices)", cov, relErr, conf, n, n-1)
					}
				}
				if norm := SampleSizeRelErr(cov, relErr, conf); n < norm {
					t.Errorf("cov=%v r=%v conf=%v: t form %d below normal form %d", cov, relErr, conf, n, norm)
				}
			}
		}
	}
	if got := SampleSizeRelErrT(0, 0.04, 0.95); got != 0 {
		t.Errorf("SampleSizeRelErrT(0, ...) = %d, want 0", got)
	}
	if got := SampleSizeRelErrT(0.09, 0, 0.95); got != 0 {
		t.Errorf("SampleSizeRelErrT(.., 0, ..) = %d, want 0", got)
	}
	if got := SampleSizeRelErrT(0.09, 0.04, 1); got != 0 {
		t.Errorf("SampleSizeRelErrT(.., .., 1) = %d, want 0", got)
	}
}

// TestSampleSizeTAstronomicTarget pins the cap: a target past a billion
// runs is answered with the cap at once — the normal-form seed used to
// escape it, and the walk-down then stepped from the seed to the cap
// one run at a time — while targets under it are unmoved.
func TestSampleSizeTAstronomicTarget(t *testing.T) {
	start := time.Now()
	for _, c := range []struct {
		cov, relErr, conf float64
		want              int
	}{
		{0.02, 1e-6, 0.95, 1_000_000_000},
		{0.5, 1e-9, 0.99, 1_000_000_000},
		{1, 1e-12, 0.95, 1_000_000_000}, // the seed overflows int
		{0.02, 1e-5, 0.95, SampleSizeRelErr(0.02, 1e-5, 0.95)},
		{0.09, 0.04, 0.95, 22},
	} {
		if got := SampleSizeRelErrT(c.cov, c.relErr, c.conf); got != c.want {
			t.Errorf("SampleSizeRelErrT(%v, %v, %v) = %d, want %d", c.cov, c.relErr, c.conf, got, c.want)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("five sizings took %v", d)
	}
}

// TestStreamRunsNeeded ties the stream to the sizing form: a stream
// whose CoV is 9% must ask for the worked example's 22 total runs.
func TestStreamRunsNeeded(t *testing.T) {
	// Build a sample with mean 100 and CoV exactly 9%: two points at
	// 100±9 give StdDev 9*sqrt(2/1)... use a symmetric pair scaled so
	// the n-1 variance lands on 81.
	var s Stream
	d := 9.0 / math.Sqrt2 // variance of {100-d, 100+d} is 2d²/1 = 81
	for _, x := range []float64{100 - d, 100 + d} {
		if err := s.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if cov := s.CoV(); !almostEq(cov, 9.0, 1e-12) {
		t.Fatalf("constructed CoV = %v, want 9", cov)
	}
	if got := s.RunsNeeded(0.04, 0.95); got != 22 {
		t.Errorf("RunsNeeded(0.04, 0.95) = %d, want 22", got)
	}
}
