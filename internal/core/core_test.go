package core

import (
	"math"
	"testing"

	"varsim/internal/config"
	"varsim/internal/stats"
)

func TestWCRKnownCases(t *testing.T) {
	// Disjoint samples: no pair contradicts the means.
	a := []float64{10, 11, 12}
	b := []float64{1, 2, 3}
	if got := WCR(a, b); got != 0 {
		t.Errorf("disjoint WCR = %v, want 0", got)
	}
	// Fully interleaved with equal means: mean diff zero -> 0 by definition.
	if got := WCR([]float64{1, 3}, []float64{1, 3}); got != 0 {
		t.Errorf("equal-mean WCR = %v, want 0", got)
	}
	// One contradicting pair out of four: a mean 10 > b mean 5.5, but
	// a=9 vs b=10 flips.
	got := WCR([]float64{9, 11}, []float64{1, 10})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("WCR = %v, want 0.25", got)
	}
	if WCR(nil, b) != 0 || WCR(a, nil) != 0 {
		t.Error("empty inputs should give 0")
	}
}

func TestWCRSymmetry(t *testing.T) {
	a := []float64{5, 6, 7, 8}
	b := []float64{6.5, 7.5, 5.5, 9}
	if WCR(a, b) != WCR(b, a) {
		t.Error("WCR must be symmetric")
	}
}

func TestCompareOrdersByMean(t *testing.T) {
	fast := Space{Label: "fast", Values: []float64{10, 10.2, 9.8, 10.1}}
	slow := Space{Label: "slow", Values: []float64{12, 12.2, 11.8, 12.1}}
	for _, pair := range [][2]Space{{fast, slow}, {slow, fast}} {
		c, err := Compare(pair[0], pair[1], 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if c.Slower.Label != "slow" || c.Faster.Label != "fast" {
			t.Fatalf("ordering wrong: slower=%s faster=%s", c.Slower.Label, c.Faster.Label)
		}
		if c.MeanDiffPct < 19 || c.MeanDiffPct > 21 {
			t.Errorf("mean diff %.2f%%, want ~20%%", c.MeanDiffPct)
		}
		if !c.TTest.Reject(0.01) {
			t.Error("clear difference should reject H0")
		}
		if c.CIsOverlap {
			t.Error("disjoint spaces' CIs should not overlap")
		}
		if c.WCRPct != 0 {
			t.Errorf("disjoint spaces WCR = %v, want 0", c.WCRPct)
		}
	}
	// A space against a relabelled copy of itself: no difference.
	same := fast
	same.Label = "same"
	c, err := Compare(fast, same, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if c.MeanDiffPct != 0 {
		t.Errorf("identical spaces differ: %+v", c)
	}
}

func TestCompareOverlapping(t *testing.T) {
	a := Space{Label: "a", Values: []float64{10, 12, 11, 13, 10.5, 11.5}}
	b := Space{Label: "b", Values: []float64{10.2, 12.2, 11.2, 13.2, 10.7, 11.7}}
	c, err := Compare(a, b, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if c.WCRPct <= 0 {
		t.Error("overlapping spaces should have positive WCR")
	}
	if !c.CIsOverlap {
		t.Error("near-identical spaces' CIs should overlap")
	}
	if c.TTest.Reject(0.05) {
		t.Error("tiny difference should not be significant at 6 runs")
	}
	if got := c.Conclusion(0.05); got == "" {
		t.Error("empty conclusion")
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(Space{Values: []float64{1}}, Space{Values: []float64{1, 2}}, 0.95); err == nil {
		t.Error("expected error for tiny samples")
	}
}

func TestExperimentValidate(t *testing.T) {
	e := Experiment{Config: config.Default(), Workload: "oltp", MeasureTxns: 10, Runs: 2}
	if err := e.Validate(); err != nil {
		t.Fatalf("valid experiment rejected: %v", err)
	}
	bad := e
	bad.Runs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero runs accepted")
	}
	bad = e
	bad.MeasureTxns = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero measurement accepted")
	}
	bad = e
	bad.WarmupTxns = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative warmup accepted")
	}
}

// TestRunSpaceRefusesZeroRuns: an experiment is validated even when its
// plan has nothing to run.
func TestRunSpaceRefusesZeroRuns(t *testing.T) {
	e := smallExperiment()
	e.Runs = 0
	if _, err := e.RunSpace(); err == nil {
		t.Fatal("RunSpace with Runs: 0 returned no error")
	}
}

func smallExperiment() Experiment {
	cfg := config.Default()
	cfg.NumCPUs = 4
	return Experiment{
		Label:        "test",
		Config:       cfg,
		Workload:     "oltp",
		WorkloadSeed: 7,
		WarmupTxns:   20,
		MeasureTxns:  20,
		Runs:         5,
		SeedBase:     1,
	}
}

func TestRunSpaceProducesVariability(t *testing.T) {
	sp, err := smallExperiment().RunSpace()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Values) != 5 {
		t.Fatalf("got %d runs", len(sp.Values))
	}
	s := sp.Summary()
	if !(s.Min < s.Max) {
		t.Fatalf("no spread across perturbed runs: %+v", s)
	}
	if s.CoV <= 0 || s.CoV > 50 {
		t.Fatalf("implausible CoV %.2f%%", s.CoV)
	}
	for _, r := range sp.Results {
		if r.Txns < 20 {
			t.Fatalf("run completed %d txns", r.Txns)
		}
	}
}

func TestRunSpaceReproducible(t *testing.T) {
	a, err := smallExperiment().RunSpace()
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallExperiment().RunSpace()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("experiment not reproducible at run %d: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
}

func TestTimeSampleAndANOVA(t *testing.T) {
	// Checkpoints are taken past the cold-start region so the workload's
	// lifetime trend (database growth) dominates cache warmup.
	e := smallExperiment()
	e.Runs = 4
	spaces, err := e.TimeSample([]int64{1600, 3700, 5800})
	if err != nil {
		t.Fatal(err)
	}
	if len(spaces) != 3 {
		t.Fatalf("got %d spaces", len(spaces))
	}
	res, err := ANOVAOverCheckpoints(spaces)
	if err != nil {
		t.Fatal(err)
	}
	if res.F < 0 || math.IsNaN(res.P) {
		t.Fatalf("bad ANOVA %+v", res)
	}
	// Between-checkpoint (time) variability must dominate within-
	// checkpoint (space) variability for OLTP — the paper's §5.2 ANOVA
	// finding.
	if !res.Significant(0.05) {
		t.Errorf("time variability should be ANOVA-significant: %+v", res)
	}
}

func TestSPECjbbJITWarmupTrend(t *testing.T) {
	// SPECjbb's dominant lifetime effect is JIT warm-up: later
	// checkpoints run faster (Figure 9b: >36% between checkpoints).
	e := smallExperiment()
	e.Workload = "specjbb"
	e.Runs = 3
	e.MeasureTxns = 60
	spaces, err := e.TimeSample([]int64{400, 5800})
	if err != nil {
		t.Fatal(err)
	}
	m0 := stats.Mean(spaces[0].Values)
	m1 := stats.Mean(spaces[1].Values)
	if m1 >= m0 {
		t.Errorf("expected falling CPT from JIT warm-up, got %v -> %v", m0, m1)
	}
}

func TestTimeSampleErrors(t *testing.T) {
	e := smallExperiment()
	if _, err := e.TimeSample(nil); err == nil {
		t.Error("no checkpoints accepted")
	}
	if _, err := e.TimeSample([]int64{30, 20}); err == nil {
		t.Error("descending checkpoints accepted")
	}
}

func TestPlanRuns(t *testing.T) {
	a := Space{Values: []float64{100, 102, 98, 101, 99, 103, 97, 100}}
	b := Space{Values: []float64{95, 97, 93, 96, 94, 98, 92, 95}}
	p := PlanRuns(a, b, 0.01, 0.05)
	if p.ByRelativeError <= 0 || p.ByHypothesis <= 0 {
		t.Fatalf("plan has non-positive run counts: %+v", p)
	}
	// Larger tolerated error -> fewer runs.
	p2 := PlanRuns(a, b, 0.05, 0.05)
	if p2.ByRelativeError > p.ByRelativeError {
		t.Error("looser tolerance should need fewer runs")
	}
}

func TestPrepareUnknownWorkload(t *testing.T) {
	e := smallExperiment()
	e.Workload = "nosuch"
	if _, err := e.Prepare(); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCheckpointSamplers(t *testing.T) {
	sys := SystematicCheckpoints(4, 8000)
	want := []int64{2000, 4000, 6000, 8000}
	for i := range want {
		if sys[i] != want[i] {
			t.Fatalf("systematic = %v", sys)
		}
	}
	rnd := RandomCheckpoints(6, 8000, 1)
	if len(rnd) != 6 {
		t.Fatalf("random returned %d checkpoints", len(rnd))
	}
	for i, ck := range rnd {
		if ck < 1 || ck > 8000 {
			t.Fatalf("checkpoint %d out of range: %d", i, ck)
		}
		if i > 0 && rnd[i] <= rnd[i-1] {
			t.Fatalf("random checkpoints not strictly ascending: %v", rnd)
		}
	}
	// Deterministic in seed; different across seeds.
	again := RandomCheckpoints(6, 8000, 1)
	for i := range rnd {
		if rnd[i] != again[i] {
			t.Fatal("random checkpoints not reproducible")
		}
	}
	other := RandomCheckpoints(6, 8000, 2)
	same := true
	for i := range rnd {
		if rnd[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical checkpoints")
	}
	if SystematicCheckpoints(0, 100) != nil || RandomCheckpoints(0, 100, 1) != nil {
		t.Fatal("degenerate inputs should give nil")
	}
}

func TestMESIExperimentRuns(t *testing.T) {
	e := smallExperiment()
	e.Config.CoherenceMESI = true
	sp, err := e.RunSpace()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Values) != e.Runs {
		t.Fatalf("MESI experiment produced %d runs", len(sp.Values))
	}
}
