package core

import (
	"varsim/internal/digest"
	"varsim/internal/fleet"
	"varsim/internal/machine"
	"varsim/internal/trace"
)

// BranchTraces is BranchSpace with structured tracing enabled on every
// branched run: n perturbed runs of measureTxns transactions each from
// the checkpoint machine, returning the space plus each run's event
// stream (capEvents per run, 0 = unbounded). Seeds derive exactly as in
// BranchSpace, so run i here reproduces run i there — the traces are
// the Figure-1 view of the same sample space. Like BranchSpace, the
// runs execute on a fleet of workers with an index-ordered merge, so
// both the space and the per-run streams are byte-identical for every
// worker count.
func BranchTraces(checkpoint *machine.Machine, label string, n int, measureTxns int64, seedBase uint64, capEvents, workers int) (Space, [][]trace.Event, error) {
	sp, traces, _, err := BranchObserved(checkpoint, label, n, measureTxns, seedBase, capEvents, workers, 0)
	return sp, traces, err
}

// BranchObserved is BranchTraces with interval state digests riding
// along: every branched run records both its event stream and, when
// digestIntervalNS > 0, a digest sample per interval of simulated
// time. One fleet pass produces the space, the traces, and the digest
// streams — divergence markers land in the same trace they annotate.
// digestIntervalNS <= 0 disables digesting (SpaceDigests comes back
// empty) and makes this exactly BranchTraces.
func BranchObserved(checkpoint *machine.Machine, label string, n int, measureTxns int64, seedBase uint64, capEvents, workers int, digestIntervalNS int64) (Space, [][]trace.Event, SpaceDigests, error) {
	sp := Space{Label: label}
	sd := SpaceDigests{IntervalNS: digestIntervalNS}
	if n <= 0 {
		return sp, nil, sd, nil
	}
	type observed struct {
		res    machine.Result
		events []trace.Event
		dig    digest.Series
	}
	branches, err := fleet.Map(fleet.Width(workers), n, branchJob(checkpoint, seedBase, func(m *machine.Machine) (observed, error) {
		m.EnableTrace(capEvents)
		if digestIntervalNS > 0 {
			m.EnableDigests(digestIntervalNS)
		}
		res, err := m.Run(measureTxns)
		if err != nil {
			return observed{}, err
		}
		o := observed{res: res, events: m.Trace().Events()}
		if digestIntervalNS > 0 {
			o.dig = m.DigestSeries()
		}
		return o, nil
	}))
	if err != nil {
		return Space{}, nil, SpaceDigests{}, runError(err)
	}
	sp.Values = make([]float64, n)
	sp.Results = make([]machine.Result, n)
	traces := make([][]trace.Event, n)
	if digestIntervalNS > 0 {
		sd.Series = make([]digest.Series, n)
	}
	for i, b := range branches {
		sp.Values[i] = b.res.CPT
		sp.Results[i] = b.res
		traces[i] = b.events
		if digestIntervalNS > 0 {
			sd.Series[i] = b.dig
		}
	}
	return sp, traces, sd, nil
}
