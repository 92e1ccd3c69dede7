package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestSeedIndependence(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSnapshotCopy(t *testing.T) {
	a := New(7)
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	b := a // value copy is a checkpoint
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("copied stream diverged from original")
		}
	}
}

func TestDigest(t *testing.T) {
	a := New(42)
	b := New(42)
	if a.Digest() != b.Digest() {
		t.Fatal("equal states digest unequal")
	}
	before := a.Digest()
	a.Uint64()
	if a.Digest() == before {
		t.Fatal("advancing the stream did not change the digest")
	}
	if a.Digest() == b.Digest() {
		t.Fatal("diverged states digest equal")
	}
	b.Uint64()
	if a.Digest() != b.Digest() {
		t.Fatal("lockstep streams digest unequal")
	}
	if New(1).Digest() == New(2).Digest() {
		t.Fatal("different seeds digest equal")
	}
	// Digest must not advance the stream.
	c, d := New(9), New(9)
	c.Digest()
	if c.Uint64() != d.Uint64() {
		t.Fatal("Digest advanced the generator")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// mul64Limbs is the 128-bit multiply by 32-bit limbs that Intn and
// Int63n were written with before they took math/bits.Mul64, kept here
// verbatim so that every stream the simulator has ever drawn stays the
// stream it draws.
func mul64Limbs(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// TestReductionMatchesLimbMultiply pins Intn and Int63n to the outputs
// of the hand-rolled multiply for any seed and any bound, the extremes
// included.
func TestReductionMatchesLimbMultiply(t *testing.T) {
	if err := quick.Check(func(seed, bound uint64) bool {
		r, ref := New(seed), New(seed)
		for _, n := range []int64{1, 2, 1<<31 - 1, 1 << 32, 1<<63 - 1, int64(bound>>1) | 1, int64(bound>>33) | 1} {
			want, _ := mul64Limbs(ref.Uint64(), uint64(n))
			if got := r.Int63n(n); got != int64(want) {
				t.Logf("Int63n(%d) = %d, limb multiply %d", n, got, want)
				return false
			}
			want, _ = mul64Limbs(ref.Uint64(), uint64(n))
			if got := r.Intn(int(n)); got != int(want) {
				t.Logf("Intn(%d) = %d, limb multiply %d", n, got, want)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(9)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %.4f, want ~0.1", i, got)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestDeriveDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for parent := uint64(0); parent < 10; parent++ {
		for i := uint64(0); i < 100; i++ {
			s := Derive(parent, i)
			if seen[s] {
				t.Fatalf("Derive(%d,%d) collided", parent, i)
			}
			seen[s] = true
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / trials
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("Exp mean %.3f, want ~5", mean)
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	r := New(19)
	const n = 100
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		v := r.Zipf(n, 0.8)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Strong skew: first decile should receive far more than uniform share.
	first := 0
	for i := 0; i < n/10; i++ {
		first += counts[i]
	}
	if first < 20000 {
		t.Fatalf("Zipf(0.8) first decile got %d of 100000; expected heavy skew", first)
	}
}

func TestZipfDegenerate(t *testing.T) {
	r := New(23)
	if v := r.Zipf(1, 0.9); v != 0 {
		t.Fatalf("Zipf(1) = %d, want 0", v)
	}
	if v := r.Zipf(0, 0.9); v != 0 {
		t.Fatalf("Zipf(0) = %d, want 0", v)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(29)
	const trials = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Norm mean %.3f, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Norm std %.3f, want ~2", math.Sqrt(variance))
	}
}

func TestPerm(t *testing.T) {
	r := New(31)
	p := make([]int, 50)
	r.Perm(p)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(37)
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %.4f", got)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
