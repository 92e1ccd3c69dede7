// Package core implements the paper's primary contribution: the
// statistical simulation methodology of §4–§5.
//
// The method: run each (configuration, workload) pair many times from
// the same initial conditions, each run with a unique pseudo-random
// perturbation seed; treat the runs as a sample from the space of
// possible executions; and use standard statistics — the Wrong
// Conclusion Ratio as a diagnostic, confidence intervals and hypothesis
// tests as decision procedures, ANOVA to weigh time against space
// variability, and sample-size estimation to plan experiments.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"varsim/internal/config"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/rng"
	"varsim/internal/sampling"
	"varsim/internal/stats"
	"varsim/internal/workloads"
)

// Space is a sample of performance estimates (cycles per transaction)
// from multiple perturbed runs of one configuration — an empirical slice
// of the space of possible executions.
type Space struct {
	Label   string
	Values  []float64
	Results []machine.Result
	// Missing lists run indices a graceful drain left unexecuted
	// (ascending); empty for a complete space. Values and Results hold
	// only the runs that did execute — a drained space is a shorter
	// sample, not one padded with zeros.
	Missing []int
}

// Incomplete reports whether the space was cut short by a drain.
func (s Space) Incomplete() bool { return len(s.Missing) > 0 }

// Summary returns descriptive statistics of the space.
func (s Space) Summary() stats.Summary { return stats.Summarize(s.Values) }

// CI returns the confidence interval for the space's mean.
func (s Space) CI(confidence float64) (stats.ConfidenceInterval, error) {
	return stats.CI(s.Values, confidence)
}

// WCR computes the Wrong Conclusion Ratio of §4.1: the fraction of all
// single-run comparison pairs (one run from each configuration) whose
// conclusion contradicts the relationship between the configurations'
// true (sample-mean) performance. slow and fast are runtimes (cycles per
// transaction) of the two configurations; the "correct" conclusion is
// whichever direction the two means exhibit.
func WCR(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	meanDiff := stats.Mean(a) - stats.Mean(b)
	if meanDiff == 0 {
		return 0
	}
	wrong := 0
	for _, x := range a {
		for _, y := range b {
			d := x - y
			if d != 0 && (d > 0) != (meanDiff > 0) {
				wrong++
			}
		}
	}
	return float64(wrong) / float64(len(a)*len(b))
}

// Comparison is the full statistical comparison of two configurations.
type Comparison struct {
	Slower, Faster   Space // ordered by sample mean (Slower has higher CPT)
	MeanDiffPct      float64
	WCRPct           float64
	TTest            stats.TTestResult
	CISlower, CIFast stats.ConfidenceInterval
	CIsOverlap       bool
}

// Conclusion renders the comparison verdict at significance level alpha.
func (c Comparison) Conclusion(alpha float64) string {
	if c.TTest.Reject(alpha) {
		return fmt.Sprintf("%s outperforms %s (p=%.4f < %.3f)",
			c.Faster.Label, c.Slower.Label, c.TTest.P, alpha)
	}
	return fmt.Sprintf("no significant difference between %s and %s (p=%.4f >= %.3f)",
		c.Faster.Label, c.Slower.Label, c.TTest.P, alpha)
}

// Compare runs the §5.1 procedures on two spaces.
func Compare(a, b Space, confidence float64) (Comparison, error) {
	if len(a.Values) < 2 || len(b.Values) < 2 {
		return Comparison{}, stats.ErrInsufficientData
	}
	slower, faster := a, b
	if stats.Mean(a.Values) < stats.Mean(b.Values) {
		slower, faster = b, a
	}
	ms, mf := stats.Mean(slower.Values), stats.Mean(faster.Values)
	var tt stats.TTestResult
	var err error
	if len(slower.Values) == len(faster.Values) {
		tt, err = stats.TTestOneSided(slower.Values, faster.Values)
	} else {
		tt, err = stats.WelchTTest(slower.Values, faster.Values)
	}
	if err != nil {
		return Comparison{}, err
	}
	cis, err := stats.CI(slower.Values, confidence)
	if err != nil {
		return Comparison{}, err
	}
	cif, err := stats.CI(faster.Values, confidence)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{
		Slower: slower, Faster: faster,
		MeanDiffPct: 100 * (ms - mf) / mf,
		WCRPct:      100 * WCR(slower.Values, faster.Values),
		TTest:       tt,
		CISlower:    cis, CIFast: cif,
		CIsOverlap: cis.Overlaps(cif),
	}, nil
}

// Experiment describes one simulation experiment: a configuration, a
// workload, how long to warm up, how much to measure, and how many
// perturbed runs to sample.
type Experiment struct {
	Label        string
	Config       config.Config
	Workload     string
	WorkloadSeed uint64 // the shared initial conditions ("checkpoint identity")
	WarmupTxns   int64  // transactions executed before the checkpoint is taken
	MeasureTxns  int64  // transactions per measured run
	Runs         int
	SeedBase     uint64 // perturbation seeds are derived from this
	// Workers is the fleet width for branching the perturbed runs:
	// 0 or 1 runs them sequentially on the calling goroutine, n > 1
	// fans them out over n fleet workers, and a negative value selects
	// one worker per host CPU (fleet.DefaultWorkers). Any value yields
	// byte-identical results — see docs/PARALLELISM.md.
	Workers int
	// DigestIntervalNS, when positive, records an interval state digest
	// every DigestIntervalNS of simulated time in each run (see
	// internal/digest); RunSpaceDigests returns the streams alongside
	// the space. Serialized with the spec so a -resume replays the same
	// cadence it journaled.
	DigestIntervalNS int64 `json:"digest_interval_ns,omitempty"`
	// Adaptive, when non-nil, switches the experiment to the adaptive
	// sampling scheduler (AdaptiveSpace): Runs becomes the fixed-N
	// baseline the runs-saved accounting compares against, and the
	// target's stopping rule decides the actual spend. Serialized with
	// the spec so a -resume replays the same stopping rule — and the
	// same journaled decisions — the interrupted run used.
	Adaptive *sampling.Target `json:"adaptive,omitempty"`
	// Resilience carries the crash-safety plumbing (journal, resume
	// cache, retry/timeout budget, drain signal); the zero value means
	// plain in-memory execution. Excluded from JSON so experiment spec
	// files (cmd/varsim -journal) serialize cleanly.
	Resilience Resilience `json:"-"`
}

// Resilience bundles the optional crash-safety plumbing an experiment
// threads into its run fleet — see docs/RESILIENCE.md. All fields are
// optional; the zero value is plain, journal-free execution.
type Resilience struct {
	// Journal, when non-nil, receives one durable record per settled
	// run (success or terminal failure) as the fleet completes it.
	Journal *journal.Writer
	// Cache, when non-nil, is the replayed journal of a previous
	// attempt: runs whose (experiment, config hash, seed, index) key
	// has an ok record are merged from the cache instead of re-run.
	Cache *journal.Cache
	// JobTimeout bounds each run attempt by wall clock; 0 = unbounded.
	JobTimeout time.Duration
	// Retries is the number of extra attempts after a failed run.
	Retries int
	// Stop, when non-nil, drains the fleet once closed: in-flight runs
	// finish and are journaled, unstarted runs are reported in
	// Space.Missing.
	Stop <-chan struct{}
	// Observe, when non-nil, sees every successful run's result — live
	// from the worker that settled it, and replayed for cache hits (both
	// per-run hits and whole-space CachedSpace replays), so a resumed
	// experiment feeds the same observations a fresh one would. It is a
	// pure observer for the precision observatory (internal/precision):
	// it must never feed anything back into the simulation, and because
	// live calls arrive in host completion order, its state is not part
	// of the byte-identical output contract. Implementations must be
	// safe for concurrent calls.
	Observe func(key journal.Key, r machine.Result)
	// TestHook injects scripted faults (internal/faultinject); tests
	// only, nil on every production path.
	TestHook fleet.TestHook
}

// enabled reports whether any resilience feature is active, so the
// plain path stays exactly the historical BranchSpace.
func (r Resilience) enabled() bool {
	return r.Journal != nil || r.Cache != nil || r.JobTimeout > 0 ||
		r.Retries > 0 || r.Stop != nil || r.TestHook != nil || r.Observe != nil
}

// Validate checks the experiment definition.
func (e Experiment) Validate() error {
	if e.Runs <= 0 {
		return errors.New("core: experiment needs at least one run")
	}
	if e.MeasureTxns <= 0 {
		return errors.New("core: experiment needs a positive measurement length")
	}
	if e.WarmupTxns < 0 {
		return errors.New("core: negative warmup")
	}
	return e.Config.Validate()
}

// Prepare builds the experiment's machine, runs the warmup, and returns
// the warmed machine — the paper's "checkpoint" from which all runs
// start (§3.2.2).
func (e Experiment) Prepare() (*machine.Machine, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	wl, err := workloads.New(e.Workload, e.Config, e.WorkloadSeed)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(e.Config, wl, rng.Derive(e.SeedBase, 0))
	if err != nil {
		return nil, err
	}
	if e.WarmupTxns > 0 {
		if _, err := m.Run(e.WarmupTxns); err != nil {
			return nil, fmt.Errorf("core: warmup: %w", err)
		}
	}
	return m, nil
}

// RunSpace performs the experiment: it warms up once, snapshots, and
// branches Runs perturbed futures — exactly the paper's multiple-runs
// methodology (§3.3, §5.1). The branches execute on e.Workers fleet
// workers.
//
// When a resume cache covers every run, the whole space is replayed
// from the journal without preparing the machine — the warmup itself
// is skipped, which is what makes resuming a finished experiment
// nearly free.
func (e Experiment) RunSpace() (Space, error) {
	if e.Adaptive != nil {
		sp, _, err := e.AdaptiveSpace(*e.Adaptive)
		return sp, err
	}
	if sp, ok := e.CachedSpace(); ok {
		return sp, nil
	}
	base, err := e.Prepare()
	if err != nil {
		return Space{}, err
	}
	return BranchSpaceRes(base, e.Label, e.Runs, e.MeasureTxns, e.SeedBase, e.Workers, e.Resilience)
}

// branchKey is the journal identity of run i of a space: the
// experiment label, the hash of the machine configuration, the run's
// derived perturbation seed, and its index. Replay matches on the full
// key, so a journal from a different config, seed base, or label never
// contaminates a resume.
func branchKey(label, cfgHash string, seedBase uint64, i int) journal.Key {
	return journal.Key{
		Experiment: label,
		ConfigHash: cfgHash,
		Seed:       rng.Derive(seedBase, 1+uint64(i)),
		Index:      i,
	}
}

// RunKey returns run i's journal key — the identity the experiment's
// run and digest records are filed under. Exposed so tools reading a
// journal post-hoc (varsim diff) address runs exactly as the fleet
// wrote them.
func (e Experiment) RunKey(i int) journal.Key {
	return branchKey(e.Label, journal.ConfigHash(e.Config), e.SeedBase, i)
}

// CachedSpace replays the full space from the resume cache when every
// run has an ok journal record. Returns false on any miss or
// undecodable record — the caller then takes the normal prepare-and-run
// path, where per-run cache hits still apply.
func (e Experiment) CachedSpace() (Space, bool) {
	// An adaptive experiment must never take the fixed-N whole-space
	// replay: the scheduler may stop short of (or past) Runs, and a
	// CachedSpace replay racing an adaptive resume would feed the
	// precision observer the overlap twice.
	if e.Resilience.Cache == nil || e.Runs <= 0 || e.Adaptive != nil || e.Validate() != nil {
		return Space{}, false
	}
	cfgHash := journal.ConfigHash(e.Config)
	sp := Space{
		Label:   e.Label,
		Values:  make([]float64, e.Runs),
		Results: make([]machine.Result, e.Runs),
	}
	for i := 0; i < e.Runs; i++ {
		rec, ok := e.Resilience.Cache.Get(branchKey(e.Label, cfgHash, e.SeedBase, i))
		if !ok {
			return Space{}, false
		}
		if err := json.Unmarshal(rec.Result, &sp.Results[i]); err != nil {
			return Space{}, false
		}
		sp.Values[i] = sp.Results[i].CPT
	}
	// A whole-space replay never reaches the fleet, so feed the precision
	// observer here, in run-index order — only after every record decoded,
	// so a fallthrough to the normal path cannot double-observe.
	if e.Resilience.Observe != nil {
		for i := range sp.Results {
			e.Resilience.Observe(branchKey(e.Label, cfgHash, e.SeedBase, i), sp.Results[i])
		}
	}
	return sp, true
}

// BranchSpace branches n perturbed measurement runs of measureTxns
// transactions each from the given checkpoint machine, executing them
// on a fleet of workers (0 or 1 = sequential on the calling goroutine,
// negative = one worker per host CPU).
//
// Each branch is a pure job (branchJob) — a private snapshot re-seeded
// from (seedBase, index) — and the fleet merges results by job index, so
// the space is byte-identical for every worker count. The checkpoint is
// frozen (machine.Machine.Freeze) before the fleet starts: a snapshot of
// a frozen machine only reads it, and it stays quiescent for the
// duration, so the copy-on-write clones may be taken concurrently
// inside the jobs.
func BranchSpace(checkpoint *machine.Machine, label string, n int, measureTxns int64, seedBase uint64, workers int) (Space, error) {
	return BranchSpaceRes(checkpoint, label, n, measureTxns, seedBase, workers, Resilience{})
}

// BranchSpaceRes is BranchSpace with the crash-safety plumbing wired
// in: journal appends as runs settle, resume-cache replay, per-run
// timeout and retry, and graceful drain. Because retry re-invokes the
// same job closure, a retried run re-derives its original seed — the
// retry/seed contract of docs/RESILIENCE.md.
//
// A drain returns the partial space (Values/Results hold the runs that
// finished, Missing the indices that never ran) together with the
// *fleet.Incomplete error, so resilience-aware callers can render a
// resumable partial report while everyone else fails loudly.
func BranchSpaceRes(checkpoint *machine.Machine, label string, n int, measureTxns int64, seedBase uint64, workers int, res Resilience) (Space, error) {
	sp := Space{Label: label}
	if n <= 0 {
		return sp, nil
	}
	cfgHash := journal.ConfigHash(checkpoint.Config())
	opts := branchOptions(label, cfgHash, seedBase, workers, res)
	results, err := fleet.Run(opts, n, branchJob(checkpoint, seedBase, func(m *machine.Machine) (machine.Result, error) {
		return m.Run(measureTxns)
	}))
	if err != nil {
		var inc *fleet.Incomplete
		if errors.As(err, &inc) {
			miss := make(map[int]bool, len(inc.Missing))
			for _, i := range inc.Missing {
				miss[i] = true
			}
			for i, r := range results {
				if !miss[i] {
					sp.Values = append(sp.Values, r.CPT)
					sp.Results = append(sp.Results, r)
				}
			}
			sp.Missing = inc.Missing
			return sp, err
		}
		return Space{}, runError(err)
	}
	sp.Results = results
	sp.Values = make([]float64, n)
	for i, res := range results {
		sp.Values[i] = res.CPT
	}
	return sp, nil
}

// branchJob returns the fleet job every branching path submits: job i
// snapshots the checkpoint, re-seeds the copy from (seedBase, i) and
// hands it to run, whose value must not reference the machine's caches
// (a Result, a digest series and a trace's events do not). The
// checkpoint is frozen here, before the fleet starts: jobs snapshot it
// concurrently, and a snapshot of a frozen machine performs no writes.
//
// A branch whose run returned nil is handed on: a later job of the same
// fleet call takes its snapshot over that machine's cache storage
// (machine.SnapshotOver), so a fleet allocates cache pages for about as
// many branches as it has workers, not for all n. A run that failed,
// panicked or was abandoned by a fleet timeout keeps its machine — an
// abandoned attempt may still be running it — and the retry gets another
// or a fresh one. Which machine a job takes over depends on the host's
// scheduling and cannot show: SnapshotOver reads none of its state.
func branchJob[T any](checkpoint *machine.Machine, seedBase uint64, run func(*machine.Machine) (T, error)) func(int) (T, error) {
	checkpoint.Freeze()
	var spent fleet.Pool[*machine.Machine]
	return func(i int) (T, error) {
		m := checkpoint.SnapshotOver(spent.Get())
		m.SetPerturbSeed(rng.Derive(seedBase, 1+uint64(i)))
		v, err := run(m)
		if err == nil {
			spent.Put(m)
		}
		return v, err
	}
}

// branchOptions wires a Resilience bundle into the fleet options every
// space-branching path shares (BranchSpaceRes, BranchRound): journal
// replay through Cached, observation and journal appends through
// OnResult, all keyed by the run's global (label, config hash, derived
// seed, index) identity — so a round-based schedule files runs under
// exactly the keys the fixed-N path would.
func branchOptions(label, cfgHash string, seedBase uint64, workers int, res Resilience) fleet.Options[machine.Result] {
	opts := fleet.Options[machine.Result]{
		Workers:  fleet.Width(workers),
		Timeout:  res.JobTimeout,
		Retries:  res.Retries,
		Stop:     res.Stop,
		TestHook: res.TestHook,
		Labels:   []string{"experiment", label, "config", cfgHash},
	}
	if res.Cache != nil {
		opts.Cached = func(i int) (machine.Result, bool) {
			key := branchKey(label, cfgHash, seedBase, i)
			rec, ok := res.Cache.Get(key)
			if !ok {
				return machine.Result{}, false
			}
			var r machine.Result
			if err := json.Unmarshal(rec.Result, &r); err != nil {
				return machine.Result{}, false // undecodable hit: re-run
			}
			// Cache hits bypass OnResult, so replays feed the precision
			// observer here — a resumed space observes every run once.
			if res.Observe != nil {
				res.Observe(key, r)
			}
			return r, true
		}
	}
	if res.Journal != nil || res.Observe != nil {
		opts.OnResult = func(i, attempts int, v machine.Result, err error) {
			key := branchKey(label, cfgHash, seedBase, i)
			if err == nil && res.Observe != nil {
				res.Observe(key, v)
			}
			if res.Journal == nil {
				return
			}
			rec := journal.Record{Key: key, Attempts: attempts}
			if err != nil {
				rec.Status = journal.StatusFailed
				rec.Error = err.Error()
			} else if raw, merr := json.Marshal(v); merr != nil {
				rec.Status = journal.StatusFailed
				rec.Error = "core: unencodable result: " + merr.Error()
			} else {
				rec.Status = journal.StatusOK
				rec.Result = raw
			}
			// Append errors are sticky on the writer; the CLIs check
			// Writer.Err() at teardown rather than failing runs here.
			//varsim:allow stickyerr fire-and-forget by design: Writer.Err is checked at CLI teardown
			res.Journal.Append(rec)
		}
	}
	return opts
}

// runError rewrites a fleet job failure in the package's historical
// "run %d" terms, preserving the wrapped cause.
func runError(err error) error {
	var je *fleet.JobError
	if errors.As(err, &je) {
		return fmt.Errorf("core: run %d: %w", je.Index, je.Err)
	}
	return err
}

// TimeSample implements §5.2's systematic sampling of a workload's
// lifetime: it warms the workload to each checkpoint in turn (the
// checkpoints slice holds cumulative transaction counts, ascending) and
// branches a space of runs from each. The returned spaces feed ANOVA to
// decide whether time variability is significant.
func (e Experiment) TimeSample(checkpoints []int64) ([]Space, error) {
	if len(checkpoints) == 0 {
		return nil, errors.New("core: no checkpoints")
	}
	for i := 1; i < len(checkpoints); i++ {
		if checkpoints[i] <= checkpoints[i-1] {
			return nil, errors.New("core: checkpoints must be ascending")
		}
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	wl, err := workloads.New(e.Workload, e.Config, e.WorkloadSeed)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(e.Config, wl, rng.Derive(e.SeedBase, 0))
	if err != nil {
		return nil, err
	}
	var spaces []Space
	done := int64(0)
	for ci, ck := range checkpoints {
		if ck > done {
			if _, err := m.Run(ck - done); err != nil {
				return nil, fmt.Errorf("core: warmup to checkpoint %d: %w", ck, err)
			}
			done = ck
		}
		sp, err := BranchSpaceRes(m, fmt.Sprintf("%s@%d", e.Label, ck), e.Runs, e.MeasureTxns, rng.Derive(e.SeedBase, 0x100+uint64(ci)), e.Workers, e.Resilience)
		if err != nil {
			return nil, err
		}
		spaces = append(spaces, sp)
	}
	return spaces, nil
}

// RandomCheckpoints draws n checkpoint positions uniformly from
// (0, lifetime] and returns them sorted — the "sampling techniques other
// than systematic sampling" the paper leaves as future work (§5.2).
// Deterministic in seed.
func RandomCheckpoints(n int, lifetime int64, seed uint64) []int64 {
	if n <= 0 || lifetime <= 0 {
		return nil
	}
	r := rng.New(seed)
	set := make(map[int64]bool, n)
	for len(set) < n {
		ck := 1 + r.Int63n(lifetime)
		set[ck] = true
	}
	out := make([]int64, 0, n)
	//varsim:allow maporder set-member collection only; sorted ascending below
	for ck := range set {
		out = append(out, ck)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SystematicCheckpoints returns n checkpoints at fixed intervals through
// the lifetime — the paper's systematic sampling (§5.2).
func SystematicCheckpoints(n int, lifetime int64) []int64 {
	if n <= 0 || lifetime <= 0 {
		return nil
	}
	out := make([]int64, 0, n)
	for i := int64(1); i <= int64(n); i++ {
		out = append(out, i*lifetime/int64(n))
	}
	return out
}

// ANOVAOverCheckpoints runs one-way ANOVA with checkpoints as groups:
// a significant result means time variability cannot be attributed to
// space variability, so experiments must sample multiple starting points
// (§5.2).
func ANOVAOverCheckpoints(spaces []Space) (stats.ANOVAResult, error) {
	groups := make([][]float64, len(spaces))
	for i, s := range spaces {
		groups[i] = s.Values
	}
	return stats.OneWayANOVA(groups)
}

// PlanRuns estimates the number of runs needed for the experiment's
// conclusions, given pilot data: the relative-error form of §5.1.1 and
// the hypothesis-test form of §5.1.2.
type Plan struct {
	ByRelativeError int // runs for relative error r at the confidence level
	ByHypothesis    int // runs for one-sided significance between two pilots
}

// PlanRuns sizes an experiment from pilot spaces of the two
// configurations to compare. relErr is the tolerated relative error of
// the mean (e.g. 0.04); alpha the tolerated wrong-conclusion
// probability.
func PlanRuns(pilotA, pilotB Space, relErr, alpha float64) Plan {
	covFrac := stats.CoV(pilotA.Values) / 100
	p := Plan{
		ByRelativeError: stats.SampleSizeRelErr(covFrac, relErr, 1-alpha),
	}
	ma, mb := stats.Mean(pilotA.Values), stats.Mean(pilotB.Values)
	slow, fast := ma, mb
	if slow < fast {
		slow, fast = fast, slow
	}
	sd := (stats.StdDev(pilotA.Values) + stats.StdDev(pilotB.Values)) / 2
	p.ByHypothesis = stats.MinRunsProjected(slow, fast, sd, alpha)
	return p
}
