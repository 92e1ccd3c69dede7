package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"varsim/internal/rng"
	"varsim/internal/stats"
)

// driveMatrix runs a matrix rule barrier by barrier over arms whose
// values come from draw(arm), starting from a MinRuns pilot, and
// returns every arm's settling decision.
func driveMatrix(rule func([][]float64, []bool, int, Target) []Decision, k int, target Target, draw func(arm int) float64) []Decision {
	target = target.Normalize()
	samples, live := make([][]float64, k), make([]bool, k)
	grow := make([]int, k)
	for i := range live {
		live[i], grow[i] = true, target.MinRuns
	}
	final := make([]Decision, k)
	for round := 0; ; round++ {
		open := false
		for i := range samples {
			for ; grow[i] > 0; grow[i]-- {
				samples[i] = append(samples[i], draw(i))
			}
			open = open || live[i]
		}
		if !open {
			return final
		}
		for i, d := range rule(samples, live, round, target) {
			if !live[i] {
				continue
			}
			if d.Action == ActionContinue {
				grow[i] = d.Next
				continue
			}
			live[i], final[i] = false, d
		}
	}
}

// TestNoMatrixRuleRejectsTrueH0TooOften draws two-arm matrices from one
// normal population, so H0 is true and every "decided" verdict is a
// wrong conclusion, and drives DecideMatrix's rule through every barrier
// the budget allows. Over the whole sequence of looks it must decide at
// most alpha + 1 point of the time. The unsplit alpha, re-taken at every
// barrier, decides three to four times as often. It drives pairRule, the
// rule without Decide's display fields, whose interval and sample-size
// estimate would cost it minutes.
func TestNoMatrixRuleRejectsTrueH0TooOften(t *testing.T) {
	const matrices = 20_000
	for _, maxRuns := range []int{20, 30} {
		target := Target{Confidence: 0.95, MinRuns: 4, RoundSize: 4, MaxRuns: maxRuns}
		r := rng.New(rng.Derive(0x41, uint64(maxRuns)))
		draw := func(int) float64 { return r.Norm(1000, 20) } // CoV 2 %
		decided := 0
		for range matrices {
			final := driveMatrix(pairRule, 2, target, draw)
			if final[0].Action == ActionDecided || final[1].Action == ActionDecided {
				decided++
			}
		}
		alpha, rate := 1-target.Confidence, float64(decided)/matrices
		t.Logf("MaxRuns %d: decided %.1f%% of true-H0 matrices", maxRuns, 100*rate)
		if rate > alpha+0.01 {
			t.Errorf("MaxRuns %d: the matrix rule decides a true H0 at %.1f%% for alpha = %.2f", maxRuns, 100*rate, alpha)
		}
	}
}

// TestPairAlpha pins the split: 1 - Confidence over the most barriers
// the budget allows, 1 + ceil((MaxRuns - MinRuns)/RoundSize).
func TestPairAlpha(t *testing.T) {
	for _, tc := range []struct {
		target Target
		looks  int
	}{
		{Target{MinRuns: 4, MaxRuns: 20, RoundSize: 4}, 5},
		{Target{MinRuns: 4, MaxRuns: 6, RoundSize: 4}, 2},
		{Target{MinRuns: 4, MaxRuns: 30}, 8},
		{Target{MinRuns: 4, MaxRuns: 4}, 1},
	} {
		if got, want := PairAlpha(tc.target), 0.05/float64(tc.looks); math.Abs(got-want) > 1e-15 {
			t.Errorf("%+v: PairAlpha = %v, want 0.05/%d", tc.target, got, tc.looks)
		}
	}
}

// TestDecideMatrix pins the rule's shape: one arm is Decide; a pair far
// apart is decided at the pilot, both arms at once; identical arms run
// to the budget; and whatever the samples, every decision is valid and
// pairRule's plus Decide's display fields, the best arm never settles
// while a rival is still live, and no continuing arm is scheduled past
// MaxRuns.
func TestDecideMatrix(t *testing.T) {
	target := Target{MinRuns: 4, MaxRuns: 12, RoundSize: 4}.Normalize()
	xs := sample{Seed: 3, N: 8, Scale: 30}.values()
	if got, want := DecideMatrix([][]float64{xs}, []bool{true}, 2, target)[0], Decide(xs, 2, target); got != want {
		t.Errorf("one arm: %+v, Decide says %+v", got, want)
	}

	fast, slow := []float64{99, 100, 101, 100}, []float64{199, 200, 201, 200}
	ds := DecideMatrix([][]float64{slow, fast}, []bool{true, true}, 0, target)
	if ds[0].Action != ActionDecided || ds[1].Action != ActionDecided {
		t.Errorf("a pair far apart: %+v", ds)
	}
	if ds[0].RelPct != Decide(slow, 0, target).RelPct {
		t.Errorf("RelPct %v is not Decide's", ds[0].RelPct)
	}
	twins := driveMatrix(DecideMatrix, 2, target, func(int) float64 { return 1000 })
	for i, d := range twins {
		if d.Action != ActionBudget || d.N != target.MaxRuns {
			t.Errorf("twin %d: %+v, want a budget settle at %d", i, d, target.MaxRuns)
		}
	}

	prop := func(a, b, c sample, settled uint8) bool {
		samples := [][]float64{a.values(), b.values(), c.values()}
		live := []bool{settled&1 == 0, settled&2 == 0, settled&4 == 0}
		best := 0
		for i, xs := range samples {
			if stats.Mean(xs) < stats.Mean(samples[best]) {
				best = i
			}
		}
		ds, rule := DecideMatrix(samples, live, 1, target), pairRule(samples, live, 1, target)
		rivals := false
		for i, d := range ds {
			if live[i] {
				shown := Decide(samples[i], 1, target)
				rule[i].RelPct, rule[i].Needed = shown.RelPct, shown.Needed
			}
			if d != rule[i] {
				t.Logf("arm %d: %+v, the rule and Decide say %+v", i, d, rule[i])
				return false
			}
			if !live[i] {
				if d != (Decision{}) {
					t.Logf("arm %d not live, decided %+v", i, d)
					return false
				}
				continue
			}
			if err := d.Validate(); err != nil {
				t.Logf("arm %d: %v", i, err)
				return false
			}
			if d.Action == ActionContinue && len(samples[i])+d.Next > target.MaxRuns {
				t.Logf("arm %d: n=%d next=%d past the budget", i, len(samples[i]), d.Next)
				return false
			}
			rivals = rivals || (i != best && d.Action == ActionContinue)
		}
		if live[best] && rivals && ds[best].Action != ActionContinue && len(samples[best]) < target.MaxRuns {
			t.Logf("best arm %d settled %+v with a live rival", best, ds[best])
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
