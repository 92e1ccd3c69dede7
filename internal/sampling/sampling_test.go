package sampling

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"varsim/internal/stats"
)

// sample is the quick.Check input shape: a bounded, generator-friendly
// stand-in for one arm's merged values.
type sample struct {
	Seed  uint64
	N     uint8 // 0..255 values
	Scale uint8 // spread of the values around the mean
}

func (s sample) values() []float64 {
	r := rand.New(rand.NewSource(int64(s.Seed)))
	n := int(s.N)
	out := make([]float64, n)
	spread := 0.001 + float64(s.Scale)/256.0 // CoV roughly 0.1%..100%
	for i := range out {
		out[i] = 1000 * (1 + spread*r.NormFloat64())
	}
	return out
}

// TestDecideNeverStopsEarly is the stopping-rule property (satellite
// 1.1): whenever Decide stops, the sample is at least MinRuns and at
// least the §5.1.1 t-consistent estimate computed from its own CoV —
// the scheduler can never declare victory before the sample-size
// formula is satisfied.
func TestDecideNeverStopsEarly(t *testing.T) {
	target := Target{RelErr: 0.04, Confidence: 0.95, MinRuns: 4, MaxRuns: 200, RoundSize: 8}
	prop := func(s sample) bool {
		values := s.values()
		d := Decide(values, 0, target)
		if d.Action != ActionStop {
			return true
		}
		if d.N < target.MinRuns {
			t.Logf("stopped at n=%d < MinRuns=%d", d.N, target.MinRuns)
			return false
		}
		var st stats.Stream
		for _, v := range values {
			st.Add(v) //nolint:errcheck
		}
		cov := st.CoV() / 100
		if need := stats.SampleSizeRelErrT(cov, target.RelErr, target.Confidence); need > d.N {
			t.Logf("stopped at n=%d but the estimate needs %d (cov %.4f)", d.N, need, cov)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecidePure pins the purity contract: the decision is a function
// of (values, round, target) alone, and re-deciding over the same
// merged values gives a deeply equal decision.
func TestDecidePure(t *testing.T) {
	prop := func(s sample, round uint8) bool {
		values := s.values()
		a := Decide(values, int(round), Target{})
		b := Decide(values, int(round), Target{})
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDecideValidAndBudgeted: every decision Decide can emit passes the
// codec's Validate, never schedules past MaxRuns, and settles with
// ActionBudget at the cap.
func TestDecideValidAndBudgeted(t *testing.T) {
	target := Target{MinRuns: 4, MaxRuns: 12, RoundSize: 4}.Normalize()
	prop := func(s sample) bool {
		values := s.values()
		d := Decide(values, 0, target)
		if err := d.Validate(); err != nil {
			t.Logf("invalid decision %+v: %v", d, err)
			return false
		}
		if d.Action == ActionContinue && d.N+d.Next > target.MaxRuns {
			t.Logf("scheduled past the budget: n=%d next=%d", d.N, d.Next)
			return false
		}
		if d.N >= target.MaxRuns && d.Action == ActionContinue {
			t.Logf("continued at the budget: n=%d", d.N)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecideDegenerateSamples(t *testing.T) {
	target := Target{MinRuns: 4, MaxRuns: 16}.Normalize()
	if d := Decide(nil, 0, target); d.Action != ActionContinue || d.Next < 1 {
		t.Errorf("empty sample: %+v", d)
	}
	// Identical values: zero variance, the interval is exact.
	d := Decide([]float64{5, 5, 5, 5}, 0, target)
	if d.Action != ActionStop {
		t.Errorf("zero-variance sample should stop: %+v", d)
	}
	// Non-finite values shrink the sample instead of poisoning it.
	d = Decide([]float64{math.NaN(), math.Inf(1), 5, 5}, 0, target)
	if d.Action != ActionContinue {
		t.Errorf("non-finite values must not count toward the pilot: %+v", d)
	}
}

func TestTargetNormalize(t *testing.T) {
	d := Target{}.Normalize()
	if d.RelErr != DefaultRelErr || d.Confidence != DefaultConfidence ||
		d.MinRuns != DefaultMinRuns || d.MaxRuns != DefaultMaxRuns || d.RoundSize != DefaultRoundSize {
		t.Errorf("zero target did not pick defaults: %+v", d)
	}
	c := Target{MinRuns: 1, MaxRuns: 1}.Normalize()
	if c.MinRuns < 2 || c.MaxRuns < c.MinRuns {
		t.Errorf("clamps failed: %+v", c)
	}
}

func TestDecisionValidate(t *testing.T) {
	bad := []Decision{
		{Action: ActionContinue, Next: 0},
		{Action: ActionStop, Next: 2},
		{Action: Action("retire")},
		{Action: ActionStop, Round: -1},
		{Action: ActionStop, N: -1},
		{Action: ActionStop, RelPct: math.NaN()},
		{Action: ActionStop, RelPct: -1},
	}
	for i, d := range bad {
		if d.Validate() == nil {
			t.Errorf("case %d: %+v validated", i, d)
		}
	}
	good := []Decision{
		{Action: ActionContinue, Next: 4},
		{Action: ActionStop, N: 8, RelPct: 2.5, Needed: 6},
		{Action: ActionBudget, N: 64},
		{Action: ActionDecided, N: 4, RelPct: 9},
	}
	for i, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("case %d: %+v rejected: %v", i, d, err)
		}
	}
}

// TestDecideStrata pins the K-stratum rule: every live stratum gets
// the same decision, its interval is the equal-weight stratified
// estimator's, every Target count is per stratum, so strata grown from
// an even pilot by each Next stay level and none passes its cap, and
// strata all at the cap settle on budget.
func TestDecideStrata(t *testing.T) {
	target := Target{RelErr: 0.01, MinRuns: 3, MaxRuns: 20, RoundSize: 5}.Normalize()
	prop := func(a, b, c sample) bool {
		gens := []*rand.Rand{
			rand.New(rand.NewSource(int64(a.Seed))),
			rand.New(rand.NewSource(int64(b.Seed))),
			rand.New(rand.NewSource(int64(c.Seed))),
		}
		spreads := []float64{float64(a.Scale) / 256, float64(b.Scale) / 256, float64(c.Scale) / 256}
		strata := make([][]float64, len(gens))
		grow := func(n int) {
			for i, r := range gens {
				for j := 0; j < n; j++ {
					strata[i] = append(strata[i], 1000*(1+spreads[i]*r.NormFloat64()))
				}
			}
		}
		grow(target.MinRuns)
		live := []bool{true, true, true}
		for round := 0; ; round++ {
			ds := DecideStrata(strata, live, round, target)
			d := ds[0]
			for i, di := range ds {
				if err := di.Validate(); err != nil {
					t.Logf("round %d: invalid decision %+v: %v", round, di, err)
					return false
				}
				if di != d {
					t.Logf("round %d: stratum %d decided %+v, stratum 0 %+v", round, i, di, d)
					return false
				}
			}
			if ci, err := stats.StratifiedCI(strata, target.Confidence); err == nil {
				if want := math.Abs(100 * ci.HalfWidth / ci.Mean); math.Abs(d.RelPct-want) > 1e-12 {
					t.Logf("round %d: rel %v, stratified CI %v", round, d.RelPct, want)
					return false
				}
			}
			if d.Action != ActionContinue {
				return d.Action == ActionStop || len(strata[0]) == target.MaxRuns
			}
			if d.Next > target.RoundSize {
				t.Logf("round %d: next %d is more than a step of %d", round, d.Next, target.RoundSize)
				return false
			}
			grow(d.Next)
			for _, xs := range strata {
				if len(xs) != len(strata[0]) || len(xs) > target.MaxRuns {
					t.Logf("round %d: strata %d and %d runs, cap %d", round, len(xs), len(strata[0]), target.MaxRuns)
					return false
				}
			}
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	full := make([]float64, target.MaxRuns)
	for i := range full {
		full[i] = 100 + 30*float64(i%7) // noisy: cannot converge
	}
	ds := DecideStrata([][]float64{full, full}, []bool{true, false}, 3, target)
	if d := ds[0]; d.Action != ActionBudget || d.N != 2*target.MaxRuns {
		t.Errorf("strata at the cap should settle on budget: %+v", d)
	}
	if ds[1] != (Decision{}) {
		t.Errorf("a stratum not live was decided: %+v", ds[1])
	}
	if d := decideStrata(nil, 0, target); d.Action != ActionBudget {
		t.Errorf("no strata should settle on budget: %+v", d)
	}

	values := sample{Seed: 7, N: 32, Scale: 40}.values()
	if n := testing.AllocsPerRun(100, func() { Decide(values, 0, target) }); n != 0 {
		t.Errorf("Decide allocates %v times a call", n)
	}
}

func TestReportFinalize(t *testing.T) {
	rep := Report{
		Target: Target{}.Normalize(),
		Arms: []Arm{
			{Experiment: "a", Executed: 4, FixedN: 20, Status: StatusConverged},
			{Experiment: "b", Executed: 8, FixedN: 20, Status: StatusDecided},
			{Experiment: "c", Executed: 6, FixedN: 20, Status: StatusIncomplete},
		},
	}
	rep.Finalize()
	if rep.Executed != 18 || rep.FixedN != 60 {
		t.Errorf("totals: %+v", rep)
	}
	if math.Abs(rep.SavedPct-70) > 1e-9 {
		t.Errorf("saved pct = %v", rep.SavedPct)
	}
	if !rep.Incomplete {
		t.Error("incomplete arm not surfaced")
	}
}

func TestCounters(t *testing.T) {
	before := Read()
	CountRound(3)
	CountSettle(5)
	CountSettle(2)
	d := Read()
	if d.Rounds-before.Rounds != 1 || d.Executed-before.Executed != 3 {
		t.Errorf("round counters: %+v -> %+v", before, d)
	}
	if d.Saved-before.Saved != 7 {
		t.Errorf("settle counters: %+v -> %+v", before, d)
	}
}
