package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"varsim/internal/digest"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/metrics"
	"varsim/internal/rng"
	"varsim/internal/trace"
)

// BranchPlan says which perturbed runs to branch from a checkpoint and
// what each one captures — the paper's one operation (§3.3, §5.1) as a
// value. Run i of the plan, for i in [Lo, Lo+N), derives its
// perturbation seed from (SeedBase, i) and is journaled under
// (Label, config hash, that seed, i), so a space assembled from several
// index ranges is record-for-record the space branched in one call.
type BranchPlan struct {
	Label       string
	Lo, N       int   // run indices [Lo, Lo+N)
	MeasureTxns int64 // transactions per run
	SeedBase    uint64
	// Workers is the fleet width: 0 or 1 sequential on the calling
	// goroutine, n > 1 that many workers, negative one per host CPU.
	// Any width yields byte-identical results (docs/PARALLELISM.md).
	Workers int
	// DigestIntervalNS, when positive, records an interval state digest
	// every DigestIntervalNS of simulated time in each run.
	DigestIntervalNS int64
	// SampleIntervalNS, when positive, samples each run's counters every
	// SampleIntervalNS of simulated time into its interval series. Digests
	// and samples ride one tick, so a plan that takes both takes them at
	// one cadence.
	SampleIntervalNS int64
	// Trace records each run's whole structured event stream. Events
	// and series are not journaled, so a traced or sampled plan never
	// replays: a resume re-runs it.
	Trace bool
	// Resilience is the crash-safety plumbing (docs/RESILIENCE.md).
	Resilience Resilience

	// spent is the pool finished branches are handed on through (see
	// branchJob). Nil scopes one to the call; a caller that branches
	// call after call — the adaptive scheduler, TimeSample — sets its
	// own, so that a later call's first branches are taken over an
	// earlier call's last.
	spent *fleet.Pool[*machine.Machine]
}

// digests reports whether the plan captures digest streams.
func (p BranchPlan) digests() bool { return p.DigestIntervalNS > 0 }

// samples reports whether the plan captures interval series.
func (p BranchPlan) samples() bool { return p.SampleIntervalNS > 0 }

// validate refuses a plan no machine can run: digests and samples at
// two cadences cannot share the one tick they ride.
func (p BranchPlan) validate() error {
	if p.digests() && p.samples() && p.DigestIntervalNS != p.SampleIntervalNS {
		return fmt.Errorf("core: digest interval %d ns and sample interval %d ns differ: both ride one tick",
			p.DigestIntervalNS, p.SampleIntervalNS)
	}
	return nil
}

// BranchedRun is everything one run of a plan produced.
type BranchedRun struct {
	Result  machine.Result
	Digests digest.Series       // empty unless the plan captures digests
	Series  *metrics.TimeSeries // nil unless the plan samples
	Events  []trace.Event       // nil unless the plan traces
}

// Branched is a plan's outcome: one record per run, index-aligned
// (Runs[j] is run Lo+j). Runs a graceful drain left unexecuted are
// listed in Missing (global indices, ascending) and hold a zero record.
type Branched struct {
	Label            string
	Lo               int
	DigestIntervalNS int64
	Runs             []BranchedRun
	Missing          []int
}

// Space projects the runs' measurements: Values and Results hold only
// the runs that executed (a drained space is a shorter sample, not one
// padded with zeros).
func (b Branched) Space() Space {
	sp := Space{Label: b.Label, Missing: b.Missing}
	if n := len(b.Runs) - len(b.Missing); n > 0 {
		sp.Values = make([]float64, 0, n)
		sp.Results = make([]machine.Result, 0, n)
	}
	miss := b.Missing
	for j := range b.Runs {
		if len(miss) > 0 && miss[0] == b.Lo+j {
			miss = miss[1:]
			continue
		}
		sp.Values = append(sp.Values, b.Runs[j].Result.CPT)
		sp.Results = append(sp.Results, b.Runs[j].Result)
	}
	return sp
}

// Digests projects the runs' digest streams, index-aligned with the
// plan's range; Series is nil when the plan captured none.
func (b Branched) Digests() SpaceDigests {
	sd := SpaceDigests{IntervalNS: b.DigestIntervalNS}
	if b.DigestIntervalNS > 0 && len(b.Runs) > 0 {
		sd.Series = make([]digest.Series, len(b.Runs))
		for j := range b.Runs {
			sd.Series[j] = b.Runs[j].Digests
		}
	}
	return sd
}

// key is the journal identity of run i: the label, the hash of the
// machine configuration, the run's derived perturbation seed, and its
// index. A replay matches on the full key, so a journal from a different
// config, seed base, or label never contaminates a resume.
func (p BranchPlan) key(cfgHash string, i int) journal.Key {
	return journal.Key{
		Experiment: p.Label,
		ConfigHash: cfgHash,
		Seed:       rng.Derive(p.SeedBase, 1+uint64(i)),
		Index:      i,
	}
}

// replay reads the run filed under key back from the cache. A hit
// needs every payload the plan captures: the ok run record, the digest
// record when digests are captured, and never a traced or sampled plan
// — events and series are not journaled. Both records are peeked
// before either is read, so a miss leaves journal.Stats.Hits alone:
// that counter is the records merged, not the records looked for. An
// undecodable record, or a digest stream recorded at another cadence,
// is a miss too: the run executes again.
func (p BranchPlan) replay(key journal.Key) (BranchedRun, bool) {
	c := p.Resilience.Cache
	if p.Trace || p.samples() || !c.Has(key) || (p.digests() && !c.HasDigest(key)) {
		return BranchedRun{}, false
	}
	var r BranchedRun
	rec, _ := c.Get(key)
	if json.Unmarshal(rec.Result, &r.Result) != nil {
		return BranchedRun{}, false
	}
	if p.digests() {
		drec, _ := c.Digest(key)
		var err error
		if r.Digests, err = journal.DecodeDigest(drec); err != nil || r.Digests.IntervalNS != p.DigestIntervalNS {
			return BranchedRun{}, false
		}
	}
	return r, true
}

// observe feeds the precision observer one run, at most once per key
// in a process: the cache marks the key taken on its first observation,
// live or replayed.
func (p BranchPlan) observe(key journal.Key, r machine.Result) {
	if p.Resilience.Observe != nil && p.Resilience.Cache.Take(key) {
		p.Resilience.Observe(key, r)
	}
}

// settle files one executed run: the precision observer sees a success,
// and the run record — ok or failed — followed by the digest record when
// the plan captures digests goes to the journal and into the cache, so a
// plan that asks for the run again in this process replays it.
func (p BranchPlan) settle(key journal.Key, r BranchedRun, err error) {
	res := p.Resilience
	if err == nil {
		p.observe(key, r.Result)
	}
	if res.Journal == nil && res.Cache == nil {
		return
	}
	file := func(rec journal.Record) {
		res.Cache.Put(rec)
		// Append errors are sticky on the writer; the CLIs check
		// Writer.Err() at teardown rather than failing runs here.
		//varsim:allow stickyerr fire-and-forget by design: Writer.Err is checked at CLI teardown
		res.Journal.Append(rec)
	}
	rec := journal.Record{Key: key, Attempts: 1, Status: journal.StatusFailed}
	if err != nil {
		rec.Error = err.Error()
	} else if raw, merr := json.Marshal(r.Result); merr != nil {
		rec.Error = "core: unencodable result: " + merr.Error()
	} else {
		rec.Status, rec.Result = journal.StatusOK, raw
	}
	file(rec)
	if rec.Status == journal.StatusOK && p.digests() {
		if drec, derr := journal.DigestRecord(key, r.Digests); derr == nil {
			file(drec)
		}
	}
}

// Branch branches the plan's runs from the checkpoint machine on a
// fleet of p.Workers workers. Each branch is a pure job (branchJob) — a
// private snapshot re-seeded from (SeedBase, index) — and the fleet
// merges results by index, so the outcome is byte-identical for every
// worker count. Runs with a record in Resilience.Cache replay from it
// instead of executing; executed runs are journaled and filed into the
// cache as they settle.
//
// A graceful drain returns the partial outcome (Missing lists the
// indices that never ran) together with the *fleet.Incomplete error, so
// resilience-aware callers can render a resumable partial report while
// everyone else fails loudly.
func Branch(checkpoint *machine.Machine, p BranchPlan) (Branched, error) {
	return branch(journal.ConfigHash(checkpoint.Config()), func() (*machine.Machine, error) { return checkpoint, nil }, p)
}

// branch is the one body behind Branch, Experiment.Branch and an arm's
// rounds. It reads the store once per run, in index order, on the
// calling goroutine: a run it can replay is observed there and merged at its index, and only the rest go to the
// fleet, under their global run indices. base is called for the
// checkpoint only when some run must execute and no drain has fired, so
// a range the store covers replays without a warmup — which is what
// makes resuming a finished experiment nearly free.
func branch(cfgHash string, base func() (*machine.Machine, error), p BranchPlan) (Branched, error) {
	if err := p.validate(); err != nil {
		return Branched{}, err
	}
	b := Branched{Label: p.Label, Lo: p.Lo, DigestIntervalNS: p.DigestIntervalNS}
	if p.N <= 0 {
		return b, nil
	}
	var hits []BranchedRun // index-aligned, made on the first hit
	miss := make([]int, 0, p.N)
	for i := p.Lo; i < p.Lo+p.N; i++ {
		key := p.key(cfgHash, i)
		r, ok := p.replay(key)
		if !ok {
			miss = append(miss, i)
			continue
		}
		if hits == nil {
			hits = make([]BranchedRun, p.N)
		}
		hits[i-p.Lo] = r
		p.observe(key, r.Result)
	}
	if len(miss) == 0 {
		b.Runs = hits
		return b, nil
	}
	res := p.Resilience
	opts := fleet.Options[BranchedRun]{
		Workers: p.Workers,
		Stop:    res.Stop,
		Indices: miss,
		Labels:  []string{"experiment", p.Label, "config", cfgHash},
	}
	if opts.Stopped() {
		// A drain has fired: nothing new starts, the checkpoint's warmup
		// included, and every miss is left for a resume.
		if hits == nil {
			hits = make([]BranchedRun, p.N)
		}
		b.Runs, b.Missing = hits, miss
		return b, &fleet.Incomplete{Total: len(miss), Missing: miss}
	}
	checkpoint, err := base()
	if err != nil {
		return Branched{}, err
	}
	if res.Journal != nil || res.Cache != nil || res.Observe != nil {
		opts.OnResult = func(i int, r BranchedRun, err error) {
			p.settle(p.key(cfgHash, i), r, err)
		}
	}
	runs, err := fleet.Run(opts, len(miss), branchJob(checkpoint, p.SeedBase, p.spent, func(m *machine.Machine) (BranchedRun, error) {
		if p.Trace {
			m.EnableTrace(0)
		}
		if p.digests() {
			m.EnableDigests(p.DigestIntervalNS)
		}
		if p.samples() {
			m.EnableSampling(p.SampleIntervalNS)
		}
		var r BranchedRun
		var err error
		if r.Result, err = m.Run(p.MeasureTxns); err != nil {
			return BranchedRun{}, err
		}
		if p.Trace {
			r.Events = m.Trace().Events()
		}
		if p.digests() {
			r.Digests = m.DigestSeries()
		}
		if p.samples() {
			ts := m.MetricSeries()
			r.Series = &ts
		}
		return r, nil
	}))
	b.Runs = runs
	if hits != nil {
		for k, i := range miss {
			hits[i-p.Lo] = runs[k]
		}
		b.Runs = hits
	}
	var inc *fleet.Incomplete
	if errors.As(err, &inc) {
		b.Missing = inc.Missing
		return b, err
	}
	var je *fleet.JobError
	if errors.As(err, &je) {
		// The package's historical "run %d" terms, cause preserved.
		return Branched{}, fmt.Errorf("core: run %d: %w", je.Index, je.Err)
	}
	return b, err
}

// branchJob returns the fleet job Branch submits: job i snapshots the
// checkpoint, re-seeds the copy from (seedBase, i) and hands it to run,
// whose value must not reference the machine's caches (a Result, a
// digest series, an interval series and a trace's events do not). The
// checkpoint is frozen here, before the fleet starts: jobs snapshot it
// concurrently, and a snapshot of a frozen machine performs no writes.
//
// A branch whose run returned nil is handed on through spent: a later
// job takes its snapshot over that machine's cache storage
// (machine.SnapshotOver), so a fleet allocates cache pages for about as
// many branches as it has workers, not for all n. A nil spent is a pool
// of the call's own; the caller's, if any, carries the machines on to
// its next call. A run that failed or panicked keeps its machine; the
// next job takes another or a fresh one. Which machine a job takes over
// depends on the host's scheduling and cannot show: SnapshotOver reads
// none of its state.
func branchJob(checkpoint *machine.Machine, seedBase uint64, spent *fleet.Pool[*machine.Machine], run func(*machine.Machine) (BranchedRun, error)) func(int) (BranchedRun, error) {
	checkpoint.Freeze()
	if spent == nil {
		spent = new(fleet.Pool[*machine.Machine])
	}
	return func(i int) (BranchedRun, error) {
		m := checkpoint.SnapshotOver(spent.Get())
		m.SetPerturbSeed(rng.Derive(seedBase, 1+uint64(i)))
		r, err := run(m)
		if err == nil {
			spent.Put(m)
		}
		return r, err
	}
}

// BranchSpace branches n perturbed measurement runs of measureTxns
// transactions each from the checkpoint — Branch's quickstart form: run
// indices [0, n), no capture, no resilience.
func BranchSpace(checkpoint *machine.Machine, label string, n int, measureTxns int64, seedBase uint64, workers int) (Space, error) {
	return BranchSpaceRes(checkpoint, label, n, measureTxns, seedBase, workers, Resilience{})
}

// BranchSpaceRes is BranchSpace with the crash-safety plumbing. An
// adapter kept for bench/, which BENCHMARK.json freezes; new code calls
// Branch.
func BranchSpaceRes(checkpoint *machine.Machine, label string, n int, measureTxns int64, seedBase uint64, workers int, res Resilience) (Space, error) {
	b, err := Branch(checkpoint, BranchPlan{Label: label, N: n, MeasureTxns: measureTxns, SeedBase: seedBase, Workers: workers, Resilience: res})
	return b.Space(), err
}
