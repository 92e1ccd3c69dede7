package sampling

import "varsim/internal/stats"

// Prune ranks a matrix's arms by sample mean and flags every arm whose
// confidence interval has already separated from the best (lowest
// mean) arm's: its CI lower bound lies above the best's CI upper
// bound, so at the configured confidence it cannot be the winner and
// spending more budget on it buys nothing. The best arm is never
// pruned; arms whose sample cannot support an interval yet are never
// pruned either (they still need pilot runs, not a verdict). Pure in
// (samples, confidence).
func Prune(samples [][]float64, confidence float64) []bool {
	pruned := make([]bool, len(samples))
	cis := make([]stats.ConfidenceInterval, len(samples))
	valid := make([]bool, len(samples))
	best := -1
	for i, xs := range samples {
		ci, err := stats.CI(xs, confidence)
		if err != nil {
			continue
		}
		cis[i], valid[i] = ci, true
		if best < 0 || ci.Mean < cis[best].Mean {
			best = i
		}
	}
	if best < 0 {
		return pruned
	}
	for i := range samples {
		if i == best || !valid[i] {
			continue
		}
		pruned[i] = cis[i].Lo > cis[best].Hi
	}
	return pruned
}
