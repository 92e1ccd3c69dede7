package core

import (
	"encoding/json"
	"errors"
	"math"

	"varsim/internal/digest"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
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

// runDigested is the fleet job payload when digests ride along.
type runDigested struct {
	Res machine.Result
	Dig digest.Series
}

// BranchSpaceDigests is BranchSpaceRes with interval state digesting
// enabled on every branched run: each run records a digest sample per
// intervalNS of simulated time alongside its measurement. Seeds derive
// exactly as in BranchSpace, so run i here reproduces run i there; the
// fleet's index-ordered merge keeps both the space and the digest
// streams byte-identical for every worker count.
//
// With a journal attached, each settled run appends its usual run
// record plus a StatusDigest record under the same key; on resume a
// run replays from the cache only when both records are present, so a
// digest-less journal from an older run transparently re-simulates.
func BranchSpaceDigests(checkpoint *machine.Machine, label string, n int, measureTxns int64, seedBase uint64, workers int, intervalNS int64, res Resilience) (Space, SpaceDigests, error) {
	sp := Space{Label: label}
	sd := SpaceDigests{IntervalNS: intervalNS}
	if n <= 0 {
		return sp, sd, nil
	}
	if intervalNS <= 0 {
		sp, err := BranchSpaceRes(checkpoint, label, n, measureTxns, seedBase, workers, res)
		return sp, sd, err
	}
	cfgHash := journal.ConfigHash(checkpoint.Config())
	opts := fleet.Options[runDigested]{
		Workers:  fleet.Width(workers),
		Timeout:  res.JobTimeout,
		Retries:  res.Retries,
		Stop:     res.Stop,
		TestHook: res.TestHook,
		Labels:   []string{"experiment", label, "config", cfgHash},
	}
	if res.Cache != nil {
		opts.Cached = func(i int) (runDigested, bool) {
			key := branchKey(label, cfgHash, seedBase, i)
			rec, ok := res.Cache.Get(key)
			if !ok {
				return runDigested{}, false
			}
			drec, ok := res.Cache.Digest(key)
			if !ok {
				return runDigested{}, false // no digest journaled: re-run
			}
			var rd runDigested
			if err := json.Unmarshal(rec.Result, &rd.Res); err != nil {
				return runDigested{}, false
			}
			var err error
			if rd.Dig, err = journal.DecodeDigest(drec); err != nil {
				return runDigested{}, false
			}
			if rd.Dig.IntervalNS != intervalNS {
				return runDigested{}, false // cadence changed: re-run
			}
			// Cache hits bypass OnResult; replays feed the precision
			// observer here, like BranchSpaceRes.
			if res.Observe != nil {
				res.Observe(key, rd.Res)
			}
			return rd, true
		}
	}
	if res.Journal != nil || res.Observe != nil {
		opts.OnResult = func(i, attempts int, v runDigested, err error) {
			key := branchKey(label, cfgHash, seedBase, i)
			if err == nil && res.Observe != nil {
				res.Observe(key, v.Res)
			}
			if res.Journal == nil {
				return
			}
			// Append errors are sticky on the writer; the CLIs check
			// Writer.Err() at teardown rather than failing runs here.
			rec := journal.Record{Key: key, Attempts: attempts}
			if err != nil {
				rec.Status = journal.StatusFailed
				rec.Error = err.Error()
				//varsim:allow stickyerr fire-and-forget by design: Writer.Err is checked at CLI teardown
				res.Journal.Append(rec)
				return
			}
			raw, merr := json.Marshal(v.Res)
			if merr != nil {
				rec.Status = journal.StatusFailed
				rec.Error = "core: unencodable result: " + merr.Error()
				//varsim:allow stickyerr fire-and-forget by design: Writer.Err is checked at CLI teardown
				res.Journal.Append(rec)
				return
			}
			rec.Status = journal.StatusOK
			rec.Result = raw
			//varsim:allow stickyerr fire-and-forget by design: Writer.Err is checked at CLI teardown
			res.Journal.Append(rec)
			if drec, derr := journal.DigestRecord(key, v.Dig); derr == nil {
				//varsim:allow stickyerr fire-and-forget by design: Writer.Err is checked at CLI teardown
				res.Journal.Append(drec)
			}
		}
	}
	branches, err := fleet.Run(opts, n, branchJob(checkpoint, seedBase, func(m *machine.Machine) (runDigested, error) {
		m.EnableDigests(intervalNS)
		r, err := m.Run(measureTxns)
		if err != nil {
			return runDigested{}, err
		}
		return runDigested{Res: r, Dig: m.DigestSeries()}, nil
	}))
	if err != nil {
		var inc *fleet.Incomplete
		if errors.As(err, &inc) {
			miss := make(map[int]bool, len(inc.Missing))
			for _, i := range inc.Missing {
				miss[i] = true
			}
			sd.Series = make([]digest.Series, n)
			for i, b := range branches {
				if !miss[i] {
					sp.Values = append(sp.Values, b.Res.CPT)
					sp.Results = append(sp.Results, b.Res)
					sd.Series[i] = b.Dig
				}
			}
			sp.Missing = inc.Missing
			return sp, sd, err
		}
		return Space{}, SpaceDigests{}, runError(err)
	}
	sp.Values = make([]float64, n)
	sp.Results = make([]machine.Result, n)
	sd.Series = make([]digest.Series, n)
	for i, b := range branches {
		sp.Values[i] = b.Res.CPT
		sp.Results[i] = b.Res
		sd.Series[i] = b.Dig
	}
	return sp, sd, nil
}

// CachedSpaceDigests replays the full space and every run's digest
// stream from the resume cache. Returns false on any missing or
// undecodable record (run or digest), or on a cadence mismatch — the
// caller then takes the normal prepare-and-run path.
func (e Experiment) CachedSpaceDigests() (Space, SpaceDigests, bool) {
	if e.Resilience.Cache == nil || e.Runs <= 0 || e.DigestIntervalNS <= 0 || e.Validate() != nil {
		return Space{}, SpaceDigests{}, false
	}
	cfgHash := journal.ConfigHash(e.Config)
	sp := Space{
		Label:   e.Label,
		Values:  make([]float64, e.Runs),
		Results: make([]machine.Result, e.Runs),
	}
	sd := SpaceDigests{
		IntervalNS: e.DigestIntervalNS,
		Series:     make([]digest.Series, e.Runs),
	}
	for i := 0; i < e.Runs; i++ {
		key := branchKey(e.Label, cfgHash, e.SeedBase, i)
		rec, ok := e.Resilience.Cache.Get(key)
		if !ok {
			return Space{}, SpaceDigests{}, false
		}
		if err := json.Unmarshal(rec.Result, &sp.Results[i]); err != nil {
			return Space{}, SpaceDigests{}, false
		}
		sp.Values[i] = sp.Results[i].CPT
		drec, ok := e.Resilience.Cache.Digest(key)
		if !ok {
			return Space{}, SpaceDigests{}, false
		}
		s, err := journal.DecodeDigest(drec)
		if err != nil || s.IntervalNS != e.DigestIntervalNS {
			return Space{}, SpaceDigests{}, false
		}
		sd.Series[i] = s
	}
	// Whole-space replays bypass the fleet; feed the precision observer
	// in run-index order once every record has decoded (as CachedSpace).
	if e.Resilience.Observe != nil {
		for i := range sp.Results {
			e.Resilience.Observe(branchKey(e.Label, cfgHash, e.SeedBase, i), sp.Results[i])
		}
	}
	return sp, sd, true
}

// RunSpaceDigests is RunSpace with digesting at the experiment's
// DigestIntervalNS cadence: warm up once, snapshot, branch Runs
// perturbed futures, each recording its digest stream. A fully
// journaled experiment replays space and digests without re-simulating
// — the warmup itself is skipped.
func (e Experiment) RunSpaceDigests() (Space, SpaceDigests, error) {
	if sp, sd, ok := e.CachedSpaceDigests(); ok {
		return sp, sd, nil
	}
	base, err := e.Prepare()
	if err != nil {
		return Space{}, SpaceDigests{}, err
	}
	return BranchSpaceDigests(base, e.Label, e.Runs, e.MeasureTxns, e.SeedBase, e.Workers, e.DigestIntervalNS, e.Resilience)
}
