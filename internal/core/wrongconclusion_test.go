package core

import (
	"math"
	"testing"

	"varsim/internal/rng"
	"varsim/internal/stats"
)

// TestNoPrintedRuleRejectsTrueH0TooOften draws pairs of samples from one
// normal distribution, so H0 is true and every rejection is a wrong
// conclusion. Compare's p and the one-sided test with its direction
// fixed in advance must each reject at most alpha + 1 point of the time.
// A direction taken from the sample means rejects about 2 alpha.
func TestNoPrintedRuleRejectsTrueH0TooOften(t *testing.T) {
	const pairs, n = 20_000, 20
	alphas := []float64{0.10, 0.05, 0.01}
	r := rng.New(rng.Derive(0x40, 1))
	draw := func() []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm(1000, 20) // CoV 2 %
		}
		return xs
	}
	var compareRejects, greaterRejects [3]int
	for range pairs {
		a, b := Space{Label: "a", Values: draw()}, Space{Label: "b", Values: draw()}
		cmp, err := Compare(a, b, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := stats.TTest(a.Values, b.Values, stats.Greater)
		if err != nil {
			t.Fatal(err)
		}
		for i, alpha := range alphas {
			if cmp.TTest.Reject(alpha) {
				compareRejects[i]++
			}
			if gt.Reject(alpha) {
				greaterRejects[i]++
			}
		}
	}
	for i, alpha := range alphas {
		for _, rule := range []struct {
			name    string
			rejects int
		}{{"Compare", compareRejects[i]}, {"TTest(Greater)", greaterRejects[i]}} {
			if rate := float64(rule.rejects) / pairs; rate > alpha+0.01 {
				t.Errorf("%s rejects a true H0 at %.1f%% for alpha = %.2f", rule.name, 100*rate, alpha)
			}
		}
	}
}

// TestWCRCurveShape: the curve has min(len)/2 entries, starts at WCR
// exactly, repeats under its seed, and falls over a one-sigma gap.
func TestWCRCurveShape(t *testing.T) {
	r := rng.New(7)
	a, b := make([]float64, 20), make([]float64, 17)
	for i := range a {
		a[i] = r.Norm(1030, 30)
	}
	for i := range b {
		b[i] = r.Norm(1000, 30)
	}
	curve := WCRCurve(a, b, 11)
	if len(curve) != 17/2 {
		t.Fatalf("curve has %d entries, want min(len)/2 = %d", len(curve), 17/2)
	}
	if curve[0] != WCR(a, b) {
		t.Errorf("WCR(1) = %v, want WCR(a, b) = %v exactly", curve[0], WCR(a, b))
	}
	again := WCRCurve(a, b, 11)
	for i := range curve {
		if curve[i] != again[i] {
			t.Fatalf("same seed, different curve: %v vs %v", curve, again)
		}
	}
	if other := WCRCurve(a, b, 12); other[0] != curve[0] {
		t.Errorf("another seed moved the exact WCR(1): %v vs %v", other, curve)
	}
	if curve[len(curve)-1] >= curve[0] {
		t.Errorf("a 1-sigma gap: more runs should conclude wrongly less often: %v", curve)
	}
	if got := WCRCurve(a[:3], b, 1); len(got) != 1 || got[0] != WCR(a[:3], b) {
		t.Errorf("3 runs: curve %v, want just WCR(1)", got)
	}
	if got := WCRCurve(a[:1], b, 1); len(got) != 0 {
		t.Errorf("1 run: curve %v, want empty", got)
	}
}

// TestWCRCurveMatchesEnumeration holds the subsampled WCR(2) to the exact
// value over every pair of 2-subsets, within four standard errors of the
// estimate.
func TestWCRCurveMatchesEnumeration(t *testing.T) {
	// Drawn, not typed: decimal data tie on subset sums, and a tie's
	// sign is then the summation order's rounding.
	r := rng.New(5)
	a, b := make([]float64, 6), make([]float64, 5)
	for i := range a {
		a[i] = r.Norm(10.3, 0.7)
	}
	for i := range b {
		b[i] = r.Norm(9.8, 0.7)
	}
	diff := stats.Mean(a) - stats.Mean(b)
	wrong, total := 0, 0
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			for k := range b {
				for l := k + 1; l < len(b); l++ {
					d := a[i] + a[j] - b[k] - b[l]
					if d != 0 && (d > 0) != (diff > 0) {
						wrong++
					}
					total++
				}
			}
		}
	}
	exact := float64(wrong) / float64(total)
	got := WCRCurve(a, b, 3)[1]
	if se := math.Sqrt(exact * (1 - exact) / wcrDraws); exact == 0 || math.Abs(got-exact) > 4*se {
		t.Errorf("WCR(2) = %.4f, exact %.4f (se %.4f)", got, exact, se)
	}
}
