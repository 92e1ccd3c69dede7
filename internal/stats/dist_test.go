package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %.6f, want %.6f (tol %g)", msg, got, want, tol)
	}
}

func TestTCDFAgainstTables(t *testing.T) {
	// Standard critical values: P(T <= t) for given (t, df).
	cases := []struct{ tv, df, p float64 }{
		{0, 5, 0.5},
		{1.812, 10, 0.95},   // t_{0.95,10} = 1.8125
		{2.228, 10, 0.975},  // t_{0.975,10} = 2.2281
		{2.086, 20, 0.975},  // t_{0.975,20}
		{1.645, 1e6, 0.95},  // -> normal
		{-2.228, 10, 0.025}, // symmetry
		{2.576, 1e6, 0.995}, // normal 99%
		{6.314, 1, 0.95},    // t_{0.95,1}
		{2.920, 2, 0.95},    // t_{0.95,2}
		{2.045, 29, 0.975},  // t_{0.975,29}
		{2.0244, 38, 0.975}, // df=2n-2 for n=20 (Experiment 2 tests)
	}
	for _, c := range cases {
		approx(t, TCDF(c.tv, c.df), c.p, 2e-3, "TCDF")
	}
}

func TestTQuantileRoundTrip(t *testing.T) {
	for _, df := range []float64{1, 2, 5, 10, 19, 38, 100} {
		for _, p := range []float64{0.9, 0.95, 0.975, 0.99, 0.995, 0.25, 0.5} {
			q := TQuantile(p, df)
			approx(t, TCDF(q, df), p, 1e-9, "TQuantile round-trip")
		}
	}
}

func TestTQuantileSymmetry(t *testing.T) {
	if err := quick.Check(func(pRaw, dfRaw uint8) bool {
		p := 0.01 + 0.98*float64(pRaw)/255
		df := 1 + float64(dfRaw%100)
		a := TQuantile(p, df)
		b := TQuantile(1-p, df)
		return math.Abs(a+b) < 1e-6*math.Max(1, math.Abs(a))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormQuantileTable(t *testing.T) {
	approx(t, NormQuantile(0.975), 1.959964, 1e-4, "z_0.975")
	approx(t, NormQuantile(0.95), 1.644854, 1e-4, "z_0.95")
	approx(t, NormQuantile(0.5), 0, 1e-6, "z_0.5")
	approx(t, NormQuantile(0.995), 2.575829, 1e-4, "z_0.995")
}

func TestFCDFAgainstTables(t *testing.T) {
	// F critical values: F_{0.95}(d1,d2).
	approx(t, FCDF(4.26, 2, 9), 0.95, 2e-3, "F(2,9) 95%")
	approx(t, FCDF(2.866, 4, 20), 0.95, 3e-3, "F(4,20) 95%")
	approx(t, FCDF(8.02, 2, 9), 0.99, 2e-3, "F(2,9) 99%")
}

func TestRegIncBetaBounds(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("RegIncBeta boundary values wrong")
	}
	if err := quick.Check(func(aRaw, bRaw, xRaw uint8) bool {
		a := 0.5 + float64(aRaw)/16
		b := 0.5 + float64(bRaw)/16
		x := float64(xRaw) / 256
		v := RegIncBeta(a, b, x)
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegIncBetaMonotone(t *testing.T) {
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.01 {
		v := RegIncBeta(3, 5, x)
		if v < prev-1e-12 {
			t.Fatalf("RegIncBeta not monotone at x=%.2f", x)
		}
		prev = v
	}
}

func TestTCDFExtremes(t *testing.T) {
	if TCDF(math.Inf(1), 5) != 1 || TCDF(math.Inf(-1), 5) != 0 {
		t.Error("TCDF at infinities wrong")
	}
	if !math.IsNaN(TCDF(0, -1)) {
		t.Error("TCDF with bad df should be NaN")
	}
	if !math.IsNaN(TQuantile(0, 5)) || !math.IsNaN(TQuantile(1.5, 5)) {
		t.Error("TQuantile with bad p should be NaN")
	}
}
