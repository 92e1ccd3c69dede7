package report

import (
	"bytes"
	"testing"

	"varsim/internal/sampling"
)

// goldenSamplingReports are hand-built adaptive-sampling reports
// covering every rendering branch: all arms converged (the runs-saved
// headline), a matrix with a decided arm and two undecided at the budget, an
// interrupted schedule mid-round (the INCOMPLETE banner), and an empty
// report. Values are synthetic but shaped like real Table-3 output so
// the goldens double as documentation of the format.
func goldenSamplingReports() map[string]sampling.Report {
	target := sampling.Target{
		RelErr: 0.04, Confidence: 0.95,
		MinRuns: 4, MaxRuns: 64, RoundSize: 4,
	}.Normalize()
	converged := sampling.Report{
		Target: target,
		Arms: []sampling.Arm{
			{Experiment: "barnes", ConfigHash: "6a1f0c93d2b4e7", Executed: 4, FixedN: 20,
				Rounds: 1, RelPct: 1.82, Needed: 2, Status: sampling.StatusConverged},
			{Experiment: "oltp", ConfigHash: "b07e55aa12cd34", Executed: 12, FixedN: 20,
				Rounds: 3, RelPct: 3.71, Needed: 11, Status: sampling.StatusConverged},
			{Experiment: "specweb", ConfigHash: "9c2d41ffe08a6b", Executed: 8, FixedN: 20,
				Rounds: 2, RelPct: 3.95, Needed: 8, Status: sampling.StatusConverged},
		},
	}
	matrix := sampling.Report{
		Target: target,
		Arms: []sampling.Arm{
			{Experiment: "assoc-1way", ConfigHash: "11aa22bb33cc44", Executed: 4, FixedN: 20,
				Rounds: 1, RelPct: 5.4, Needed: 15, Status: sampling.StatusDecided},
			{Experiment: "assoc-2way", ConfigHash: "55dd66ee77ff88", Executed: 20, FixedN: 20,
				Rounds: 5, RelPct: 3.2, Needed: 14, Status: sampling.StatusBudget},
			{Experiment: "assoc-4way", ConfigHash: "99aabbccddeeff", Executed: 20, FixedN: 20,
				Rounds: 5, RelPct: 6.8, Needed: 41, Status: sampling.StatusBudget},
		},
	}
	incomplete := sampling.Report{
		Target: target,
		Arms: []sampling.Arm{
			{Experiment: "barnes", ConfigHash: "6a1f0c93d2b4e7", Executed: 4, FixedN: 20,
				Rounds: 1, RelPct: 1.82, Needed: 2, Status: sampling.StatusConverged},
			{Experiment: "oltp", ConfigHash: "b07e55aa12cd34", Executed: 6, FixedN: 20,
				Rounds: 1, Status: sampling.StatusIncomplete},
		},
	}
	reports := map[string]sampling.Report{
		"sampling_converged":  converged,
		"sampling_matrix":     matrix,
		"sampling_incomplete": incomplete,
		"sampling_empty":      {Target: target},
	}
	for name, rep := range reports {
		rep.Finalize()
		reports[name] = rep
	}
	return reports
}

func TestWriteSamplingGolden(t *testing.T) {
	for name, rep := range goldenSamplingReports() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			WriteSampling(&buf, rep)
			checkGolden(t, name, buf.Bytes())
		})
	}
}
