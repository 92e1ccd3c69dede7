package stats

import (
	"math"
	"testing"

	"varsim/internal/rng"
)

func normalSample(n int, seed uint64) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm(100, 10)
	}
	return xs
}

func TestSkewnessSymmetric(t *testing.T) {
	xs := normalSample(5000, 1)
	if sk := Skewness(xs); math.Abs(sk) > 0.1 {
		t.Errorf("normal sample skewness = %v", sk)
	}
	// Right-skewed sample.
	r := rng.New(2)
	ys := make([]float64, 5000)
	for i := range ys {
		ys[i] = r.Exp(10)
	}
	if sk := Skewness(ys); sk < 1 {
		t.Errorf("exponential sample skewness = %v, want ~2", sk)
	}
}

func TestKurtosisNormal(t *testing.T) {
	xs := normalSample(8000, 3)
	if k := Kurtosis(xs); math.Abs(k) > 0.25 {
		t.Errorf("normal sample excess kurtosis = %v", k)
	}
}

func TestMomentsDegenerate(t *testing.T) {
	if !math.IsNaN(Skewness([]float64{1, 2})) {
		t.Error("skewness with n<3 should be NaN")
	}
	if !math.IsNaN(Kurtosis([]float64{1, 2, 3})) {
		t.Error("kurtosis with n<4 should be NaN")
	}
	if Skewness([]float64{5, 5, 5, 5}) != 0 || Kurtosis([]float64{5, 5, 5, 5}) != 0 {
		t.Error("constant sample should have zero moments")
	}
}

func TestJarqueBera(t *testing.T) {
	nb, err := JarqueBera(normalSample(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !nb.PlausiblyNormal(0.01) {
		t.Errorf("normal sample rejected: %+v", nb)
	}
	// Strongly skewed sample must be rejected.
	r := rng.New(6)
	ys := make([]float64, 2000)
	for i := range ys {
		ys[i] = r.Exp(1)
	}
	eb, err := JarqueBera(ys)
	if err != nil {
		t.Fatal(err)
	}
	if eb.PlausiblyNormal(0.05) {
		t.Errorf("exponential sample accepted as normal: %+v", eb)
	}
	if _, err := JarqueBera([]float64{1, 2, 3}); err == nil {
		t.Error("tiny sample accepted")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if Percentile(xs, 50) != 3 {
		t.Errorf("median = %v", Percentile(xs, 50))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("extreme percentiles wrong")
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	if got := Percentile(xs, 87.5); got != 4.5 {
		t.Errorf("p87.5 = %v, want 4.5 (interpolated)", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestBootstrapCI(t *testing.T) {
	xs := normalSample(40, 9)
	boot, err := BootstrapCI(xs, 0.95, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := CI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// For a normal sample the two intervals should roughly agree.
	if math.Abs(boot.Lo-classic.Lo) > 2 || math.Abs(boot.Hi-classic.Hi) > 2 {
		t.Errorf("bootstrap [%v,%v] vs classic [%v,%v]", boot.Lo, boot.Hi, classic.Lo, classic.Hi)
	}
	if boot.Lo >= boot.Hi || boot.Lo > Mean(xs) || boot.Hi < Mean(xs) {
		t.Errorf("bootstrap interval malformed: %+v", boot)
	}
	// Deterministic in seed.
	again, _ := BootstrapCI(xs, 0.95, 2000, 1)
	if again != boot {
		t.Error("bootstrap not deterministic for fixed seed")
	}
	other, _ := BootstrapCI(xs, 0.95, 2000, 2)
	if other == boot {
		t.Error("different seeds gave identical bootstrap intervals")
	}
}

func TestBootstrapErrors(t *testing.T) {
	if _, err := BootstrapCI([]float64{1}, 0.95, 500, 1); err == nil {
		t.Error("n<2 accepted")
	}
	if _, err := BootstrapCI([]float64{1, 2}, 1.5, 500, 1); err == nil {
		t.Error("bad confidence accepted")
	}
}
