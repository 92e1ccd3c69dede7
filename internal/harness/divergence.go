package harness

import (
	"varsim/internal/digest"
	"varsim/internal/report"
)

// divergenceDigestNS is the digest cadence of the divergence study:
// 50 simulated microseconds.
const divergenceDigestNS = 50_000

// DivergenceStudy is the divergence observatory's worked pair: two
// perturbed OLTP runs branched from one checkpoint record interval
// state digests, and their diff says within which digest interval they
// fork, which components had forked by its closing tick, and how far
// apart the runs end.
func (h *H) DivergenceStudy() error {
	e := h.experiment("divergence/oltp", h.baseConfig(), "oltp", 500, 200, 0xD1)
	e.Runs = 2
	plan := e.BranchPlan()
	plan.DigestIntervalNS = divergenceDigestNS
	b, err := e.Branch(plan)
	if err != nil {
		return err
	}
	a, z := b.Runs[0], b.Runs[1]
	report.WriteDivergence(h.opt.Out, "run 0", "run 1", digest.Diff(a.Digests, z.Digests), divergenceDigestNS)
	report.WriteResultDelta(h.opt.Out, a.Result, z.Result)
	return nil
}
