package harness

import "varsim/internal/report"

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
	e.DigestIntervalNS = divergenceDigestNS
	sp, sd, err := e.RunSpaceDigests()
	if err != nil {
		return err
	}
	report.WriteDivergence(h.opt.Out, "run 0", "run 1", sd.Diff(0, 1), sd.IntervalNS)
	report.WriteResultDelta(h.opt.Out, sp.Results[0], sp.Results[1])
	return nil
}
