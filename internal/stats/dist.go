// Package stats implements the classical statistics the paper's
// methodology relies on (§5): descriptive statistics, Student-t
// confidence intervals, two-sample hypothesis tests, one-way ANOVA, and
// sample-size estimation. Everything is implemented from scratch on the
// standard library (math only).
package stats

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned when a computation needs more samples
// than provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// lnBeta returns ln(B(a,b)).
func lnBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b),
// computed with the continued-fraction expansion (Numerical Recipes
// §6.4). It is the workhorse behind the t and F distribution CDFs.
func RegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	bt := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lnBeta(a, b))
	if x < (a+1)/(a+b+2) {
		return bt * betaCF(a, b, x) / a
	}
	return 1 - bt*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// TCDF returns P(T <= t) for Student's t distribution with df degrees of
// freedom.
func TCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TQuantile returns the t value such that P(T <= t) = p for Student's t
// with df degrees of freedom (the inverse CDF), found by bisection.
// This supplies the "value of the normal deviate ... obtained from the
// student's t-distribution" that the paper reads from statistical tables.
func TQuantile(p, df float64) float64 {
	if df <= 0 || p <= 0 || p >= 1 {
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*math.Max(1, math.Abs(lo)) {
			break
		}
	}
	return (lo + hi) / 2
}

// NormCDF returns the standard normal CDF.
func NormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormQuantile returns the standard normal inverse CDF by bisection on
// NormCDF. The paper switches from the t table to the normal table for
// sample sizes of 50 or more.
func NormQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	lo, hi := -40.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if NormCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// FCDF returns P(F <= f) for the F distribution with (d1, d2) degrees of
// freedom. Used by one-way ANOVA (§5.2).
func FCDF(f, d1, d2 float64) float64 {
	if f <= 0 {
		return 0
	}
	x := d1 * f / (d1*f + d2)
	return RegIncBeta(d1/2, d2/2, x)
}
