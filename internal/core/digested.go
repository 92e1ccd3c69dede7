package core

import "varsim/internal/digest"

// SpaceDigests bundles the interval digest streams of a space's runs,
// index-aligned with the space: Series[i] belongs to run i. Runs a
// graceful drain left unexecuted hold an empty stream — unlike
// Space.Values, the slice is not compacted, so alignment survives a
// partial space.
type SpaceDigests struct {
	IntervalNS int64
	Series     []digest.Series
}

// Diff binary-searches runs a and b's digest streams for their first
// divergent interval.
func (d SpaceDigests) Diff(a, b int) digest.Divergence {
	return digest.Diff(d.Series[a], d.Series[b])
}

// RunSpaceDigests is RunSpace with digesting at the experiment's
// DigestIntervalNS cadence: warm up once, snapshot, branch Runs
// perturbed futures, each recording its digest stream. With a journal
// attached each settled run appends its run record plus a StatusDigest
// record under the same key, and a fully journaled experiment replays
// space and digests without re-simulating — the warmup itself is
// skipped. A run replays only when both records are present, so a
// digest-less journal from a plain run transparently re-simulates.
func (e Experiment) RunSpaceDigests() (Space, SpaceDigests, error) {
	b, err := e.Branch(e.BranchPlan())
	return b.Space(), b.Digests(), err
}
