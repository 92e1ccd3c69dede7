package core

import (
	"math"

	"varsim/internal/digest"
)

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

// Attribution aggregates the space's first-divergence points against
// run 0 (see digest.Attribute), pairing each run's digest stream with
// its final CPT. Drained runs contribute neither streams nor values:
// their aligned value slot is NaN, which Attribute ignores.
func (d SpaceDigests) Attribution(sp Space) digest.Attribution {
	values := sp.Values
	if sp.Incomplete() {
		values = alignValues(sp, len(d.Series))
	}
	return digest.Attribute(d.Series, values)
}

// alignValues re-expands a drained space's compacted Values back to
// run-index alignment, NaN at the missing indices.
func alignValues(sp Space, n int) []float64 {
	miss := make(map[int]bool, len(sp.Missing))
	for _, i := range sp.Missing {
		miss[i] = true
	}
	values := make([]float64, n)
	next := 0
	for i := range values {
		if miss[i] || next >= len(sp.Values) {
			values[i] = math.NaN()
			continue
		}
		values[i] = sp.Values[next]
		next++
	}
	return values
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
