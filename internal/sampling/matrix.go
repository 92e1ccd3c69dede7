package sampling

import "varsim/internal/stats"

// PairAlpha is the level of one look at a matrix pair: 1 − Confidence
// split evenly (Bonferroni) over the most barriers the budget allows,
// B = 1 + ⌈(MaxRuns − MinRuns)/RoundSize⌉. It covers each pair's
// repeated looks, not the choice of the best among K ≥ 3 arms.
func PairAlpha(t Target) float64 {
	t = t.Normalize()
	return (1 - t.Confidence) / float64(1+(t.MaxRuns-t.MinRuns+t.RoundSize-1)/t.RoundSize)
}

// DecideMatrix is the stopping rule of a matrix: it settles pairs, not
// arms. The best arm has the lowest mean, settled arms included (ties
// to the lowest index). Each other live arm settles ActionDecided when
// its two-sided t-test against the best (the p core.Compare prints) has
// p < PairAlpha(t), else ActionBudget at MaxRuns, else continues by a
// full round. The live best arm continues until no live rival is left,
// then settles ActionDecided, or ActionBudget at MaxRuns. RelErr stops
// no matrix arm: RelPct and Needed are Decide's, for display.
//
// It returns one decision per arm, the zero Decision for arms not live.
// With one arm it is Decide. Pure in (samples, live, round, t).
func DecideMatrix(samples [][]float64, live []bool, round int, t Target) []Decision {
	if len(samples) == 1 {
		return []Decision{Decide(samples[0], round, t)}
	}
	ds := pairRule(samples, live, round, t)
	for i, xs := range samples {
		if live[i] {
			shown := Decide(xs, round, t)
			ds[i].RelPct, ds[i].Needed = shown.RelPct, shown.Needed
		}
	}
	return ds
}

// pairRule is DecideMatrix for K ≥ 2 arms without Decide's display
// fields. A pair TTest cannot judge (too few runs, a NaN) is undecided.
func pairRule(samples [][]float64, live []bool, round int, t Target) []Decision {
	t = t.Normalize()
	best := 0
	for i, xs := range samples {
		if stats.Mean(xs) < stats.Mean(samples[best]) {
			best = i
		}
	}
	ds := make([]Decision, len(samples))
	rivals := false
	for i, xs := range samples {
		if !live[i] {
			continue
		}
		d := Decision{Round: round, N: len(xs), Action: ActionContinue, Next: min(t.RoundSize, t.MaxRuns-len(xs))}
		if d.N >= t.MaxRuns {
			d.Action, d.Next = ActionBudget, 0
		}
		if i != best {
			if tt, err := stats.TTest(xs, samples[best], stats.TwoSided); err == nil && tt.P < PairAlpha(t) {
				d.Action, d.Next = ActionDecided, 0
			}
			rivals = rivals || d.Action == ActionContinue
		}
		ds[i] = d
	}
	if live[best] && !rivals && ds[best].Action == ActionContinue {
		ds[best].Action, ds[best].Next = ActionDecided, 0
	}
	return ds
}
