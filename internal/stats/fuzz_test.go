package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// floatsFromBytes decodes data into float64 observations, 8 bytes per
// value — the full bit space, so NaNs, infinities, subnormals and
// extreme magnitudes all reach the code under test.
func floatsFromBytes(data []byte) []float64 {
	xs := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return xs
}

func bytesFromFloats(xs ...float64) []byte {
	b := make([]byte, 0, len(xs)*8)
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzCI pins CI's input contract: never panic, reject empty and
// single-sample inputs and any NaN/Inf observation with an error, and
// when it does accept a sample, return a finite interval.
func FuzzCI(f *testing.F) {
	f.Add(bytesFromFloats(100, 101, 99, 102), 0.95)
	f.Add(bytesFromFloats(1), 0.95)
	f.Add([]byte{}, 0.95)
	f.Add(bytesFromFloats(math.NaN(), 1, 2), 0.95)
	f.Add(bytesFromFloats(math.Inf(1), 1, 2), 0.99)
	f.Add(bytesFromFloats(math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64), 0.95)
	f.Add(bytesFromFloats(0, 0, 0), 0.5)
	f.Add(bytesFromFloats(1, 2), 1.5) // invalid confidence
	// Finite samples whose variance overflows: an infinite half-width is
	// not an interval either.
	f.Add(bytesFromFloats(1e200, -1e200, 3), 0.95)
	f.Add(bytesFromFloats(1e160, -1e160), 0.95)

	f.Fuzz(func(t *testing.T, data []byte, confidence float64) {
		xs := floatsFromBytes(data)
		ci, err := CI(xs, confidence) // must never panic
		hasBad := false
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				hasBad = true
			}
		}
		if len(xs) < 2 || hasBad {
			if err == nil {
				t.Fatalf("CI accepted a degenerate sample (n=%d, non-finite=%v)", len(xs), hasBad)
			}
			return
		}
		if err != nil {
			return
		}
		for name, v := range map[string]float64{
			"Mean": ci.Mean, "Lo": ci.Lo, "Hi": ci.Hi, "HalfWidth": ci.HalfWidth,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("CI returned nil error but non-finite %s for %v", name, xs)
			}
		}
		if ci.Lo > ci.Hi {
			t.Fatalf("CI returned inverted interval [%g, %g] for %v", ci.Lo, ci.Hi, xs)
		}
	})
}

// FuzzStream pins the streaming accumulator's contract against the
// batch procedures it mirrors: Add never panics and rejects exactly
// the non-finite observations; a nil-error CI is finite and ordered;
// and wherever the batch pipeline stays comfortably finite, the
// streaming mean agrees with it (to a tolerance scaled by the sample's
// magnitude — one-pass and two-pass summation order their roundings
// differently, but both are bounded by n·eps·max|x|).
func FuzzStream(f *testing.F) {
	f.Add(bytesFromFloats(100, 101, 99, 102), 0.95)
	f.Add(bytesFromFloats(1), 0.95)
	f.Add([]byte{}, 0.95)
	f.Add(bytesFromFloats(math.NaN(), 1, 2), 0.95)
	f.Add(bytesFromFloats(math.Inf(1), 1, 2), 0.99)
	f.Add(bytesFromFloats(math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64), 0.95)
	f.Add(bytesFromFloats(0, 0, 0), 0.5)
	f.Add(bytesFromFloats(250, 251, 249, 250.5, 249.5), 1.5) // invalid confidence

	f.Fuzz(func(t *testing.T, data []byte, confidence float64) {
		xs := floatsFromBytes(data)
		var s Stream
		accepted := xs[:0:0]
		for _, x := range xs {
			err := s.Add(x) // must never panic
			if bad := math.IsNaN(x) || math.IsInf(x, 0); bad != (err != nil) {
				t.Fatalf("Add(%v) error = %v, want rejection=%v", x, err, bad)
			}
			if err == nil {
				accepted = append(accepted, x)
			}
		}
		if s.N() != len(accepted) {
			t.Fatalf("N = %d after %d accepted observations", s.N(), len(accepted))
		}
		ci, err := s.CI(confidence)
		if len(accepted) < 2 || !(confidence > 0 && confidence < 1) {
			if err == nil {
				t.Fatalf("stream CI accepted a degenerate request (n=%d, conf=%v)", len(accepted), confidence)
			}
			return
		}
		if err == nil {
			for name, v := range map[string]float64{
				"Mean": ci.Mean, "Lo": ci.Lo, "Hi": ci.Hi, "HalfWidth": ci.HalfWidth,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("stream CI returned nil error but non-finite %s for %v", name, accepted)
				}
			}
			if ci.Lo > ci.Hi {
				t.Fatalf("stream CI returned inverted interval [%g, %g]", ci.Lo, ci.Hi)
			}
		}
		// Batch agreement on the mean, wherever the two-pass pipeline is
		// itself comfortably finite.
		batch, berr := CI(accepted, confidence)
		if berr != nil {
			return
		}
		maxAbs := 1.0
		for _, x := range accepted {
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
			}
		}
		n := float64(len(accepted))
		tol := 64 * n * n * 1e-16 * maxAbs
		if err != nil {
			// The stream may reject on internal overflow where the batch
			// squeaked through; it must not do so for tame inputs.
			if maxAbs < 1e100 {
				t.Fatalf("stream CI errored (%v) where batch succeeded for %v", err, accepted)
			}
			return
		}
		if d := math.Abs(ci.Mean - batch.Mean); d > tol {
			t.Fatalf("stream mean %v vs batch %v (diff %g > tol %g) for %v", ci.Mean, batch.Mean, d, tol, accepted)
		}
	})
}

// FuzzANOVA pins OneWayANOVA's input contract over two fuzzed groups:
// never panic, reject NaN/Inf observations and degenerate shapes with
// an error, and return finite statistics (with P in [0,1]) otherwise.
func FuzzANOVA(f *testing.F) {
	f.Add(bytesFromFloats(100, 101, 99), bytesFromFloats(105, 104, 106))
	f.Add(bytesFromFloats(1), bytesFromFloats(1))
	f.Add([]byte{}, bytesFromFloats(1, 2))
	f.Add(bytesFromFloats(math.NaN(), 1), bytesFromFloats(2, 3))
	f.Add(bytesFromFloats(1, 2), bytesFromFloats(math.Inf(-1), 3))
	f.Add(bytesFromFloats(math.MaxFloat64, math.MaxFloat64), bytesFromFloats(-math.MaxFloat64, -math.MaxFloat64))
	f.Add(bytesFromFloats(0, 0, 0), bytesFromFloats(0, 0))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		groups := [][]float64{floatsFromBytes(a), floatsFromBytes(b)}
		res, err := OneWayANOVA(groups) // must never panic
		hasBad := false
		for _, g := range groups {
			for _, x := range g {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					hasBad = true
				}
			}
		}
		if hasBad && err == nil {
			t.Fatalf("ANOVA accepted non-finite observations: %v", groups)
		}
		if err != nil {
			return
		}
		for name, v := range map[string]float64{
			"F": res.F, "P": res.P, "GrandMean": res.GrandMean,
			"SSBetween": res.SSBetween, "SSWithin": res.SSWithin, "BetweenShare": res.BetweenShare,
		} {
			if math.IsNaN(v) {
				t.Fatalf("ANOVA returned nil error but NaN %s for %v", name, groups)
			}
		}
		if res.P < 0 || res.P > 1 {
			t.Fatalf("ANOVA returned P=%g outside [0,1] for %v", res.P, groups)
		}
	})
}

// FuzzTTest pins TTest's input contract over two fuzzed samples: never
// panic; a nil error means P in [0,1] and a finite DF > 0; a NaN or Inf
// observation is an error; and the two-sided test is symmetric, the
// same P and DF with a and b swapped and the statistic negated.
func FuzzTTest(f *testing.F) {
	f.Add(bytesFromFloats(100, 101, 99), bytesFromFloats(105, 104, 106))
	f.Add(bytesFromFloats(1, 2, 3), bytesFromFloats(2, 4, 6, 8))
	f.Add(bytesFromFloats(1), bytesFromFloats(1, 2))
	f.Add(bytesFromFloats(math.NaN(), 1), bytesFromFloats(1, 2))
	f.Add(bytesFromFloats(1, 2), bytesFromFloats(math.Inf(-1), 3))
	f.Add(bytesFromFloats(1e308, -1e308), bytesFromFloats(1, 2))
	f.Add(bytesFromFloats(1e-170, 2e-170, 3e-170), bytesFromFloats(1e-170, 1e-170))
	f.Add(bytesFromFloats(3, 3), bytesFromFloats(1, 1, 1))
	f.Add(bytesFromFloats(0, 0), bytesFromFloats(0, 0))

	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a, b := floatsFromBytes(ab), floatsFromBytes(bb)
		hasBad := checkFinite(a, b) != nil
		var two TTestResult
		for _, alt := range []Alternative{Greater, TwoSided} {
			res, err := TTest(a, b, alt) // must never panic
			if hasBad && err == nil {
				t.Fatalf("TTest accepted non-finite observations: %v vs %v", a, b)
			}
			if err != nil {
				return
			}
			if !(res.P >= 0 && res.P <= 1) {
				t.Fatalf("alt %d: P=%g outside [0,1] for %v vs %v", alt, res.P, a, b)
			}
			if math.IsNaN(res.DF) || math.IsInf(res.DF, 0) || res.DF <= 0 {
				t.Fatalf("alt %d: DF=%g for %v vs %v", alt, res.DF, a, b)
			}
			two = res
		}
		swapped, err := TTest(b, a, TwoSided)
		if err != nil {
			t.Fatalf("TTest(a, b) accepted what TTest(b, a) rejects: %v", err)
		}
		if swapped.P != two.P || swapped.DF != two.DF || swapped.Statistic != -two.Statistic {
			t.Fatalf("two-sided test not symmetric: %+v vs swapped %+v for %v vs %v", two, swapped, a, b)
		}
	})
}

// FuzzSampleSizeRelErrT holds the bisection to the climb-and-walk it
// replaced (sampleSizeRelErrTWalk) at any input the walk finishes in
// reasonable time: past CoV 3, below 0.1 % relative error or above
// 99.9 % confidence its walk-down can take a billion steps.
func FuzzSampleSizeRelErrT(f *testing.F) {
	f.Add(0.09, 0.04, 0.95)       // the worked example: 22
	f.Add(0.02, 0.04, 0.95)       // well inside the target: the walk climbed to ~41 and back
	f.Add(0.0035, 0.0087, 0.999)  // the walk's longest descent on the test grid
	f.Add(3.0, 0.001, 0.999)      // a normal seed of ~10⁸
	f.Add(0.0, 0.04, 0.95)        // no spread: 0
	f.Add(math.NaN(), 0.04, 0.95) // a NaN CoV sizes to the cap
	f.Add(0.09, math.Inf(1), 0.5) // an infinite tolerance: 2

	f.Fuzz(func(t *testing.T, cov, relErr, confidence float64) {
		if cov > 3 || relErr < 0.001 || confidence > 0.999 {
			t.Skip()
		}
		if got, want := SampleSizeRelErrT(cov, relErr, confidence), sampleSizeRelErrTWalk(cov, relErr, confidence); got != want {
			t.Fatalf("SampleSizeRelErrT(%v, %v, %v) = %d, the walk %d", cov, relErr, confidence, got, want)
		}
	})
}
