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
	"errors"
	"fmt"
	"slices"
	"sort"

	"varsim/internal/config"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/rng"
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

// wcrDraws is the number of subset pairs WCRCurve draws per n >= 2.
const wcrDraws = 40_000

// WCRCurve extends WCR from one run per side to n: entry n-1 is WCR(n),
// the probability that the means of an n-run subset drawn from each of a
// and b order the pair against the full-sample means. Entry 0 is exactly
// WCR(a, b); each later entry is estimated from wcrDraws subset pairs
// drawn without replacement (Ekman's repeated subsampling), seeded by
// seed. n runs to min(len(a), len(b))/2: past that, subsets overlap the
// samples that define the truth, and WCR reads low.
func WCRCurve(a, b []float64, seed uint64) []float64 {
	curve := make([]float64, min(len(a), len(b))/2)
	meanDiff := stats.Mean(a) - stats.Mean(b)
	if len(curve) == 0 || meanDiff == 0 {
		return curve // tied means leave no order to get wrong, as WCR says
	}
	curve[0] = WCR(a, b)
	r := rng.New(seed)
	a, b = slices.Clone(a), slices.Clone(b) // shuffled in place below
	for n := 2; n <= len(curve); n++ {
		wrong := 0
		for range wcrDraws {
			// Equal subset sizes, so the sums order the pair as the means do.
			d := subsetSum(&r, a, n) - subsetSum(&r, b, n)
			if d != 0 && (d > 0) != (meanDiff > 0) {
				wrong++
			}
		}
		curve[n-1] = float64(wrong) / wcrDraws
	}
	return curve
}

// subsetSum sums n of xs drawn uniformly without replacement: a partial
// Fisher-Yates shuffle, which leaves xs a permutation of itself.
func subsetSum(r *rng.Stream, xs []float64, n int) float64 {
	sum := 0.0
	for i := range n {
		j := i + r.Intn(len(xs)-i)
		xs[i], xs[j] = xs[j], xs[i]
		sum += xs[i]
	}
	return sum
}

// Comparison is the full statistical comparison of two configurations.
type Comparison struct {
	Slower, Faster Space // ordered by sample mean (Slower has higher CPT)
	MeanDiffPct    float64
	WCRPct         float64
	// TTest is the two-sided test of equal means: its P does not depend
	// on which space has the larger sample mean.
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

// Compare runs the §5.1 procedures on two spaces. The t-test is
// two-sided: the direction of a one-sided test must be fixed before the
// data are seen, and the sample means only order the labels.
func Compare(a, b Space, confidence float64) (Comparison, error) {
	tt, err := stats.TTest(a.Values, b.Values, stats.TwoSided)
	if err != nil {
		return Comparison{}, err
	}
	slower, faster := a, b
	if stats.Mean(a.Values) < stats.Mean(b.Values) {
		slower, faster = b, a
	}
	ms, mf := stats.Mean(slower.Values), stats.Mean(faster.Values)
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
	// one worker per host CPU: the convention fleet.Options.Workers
	// takes. Any value yields byte-identical results — see
	// docs/PARALLELISM.md.
	Workers int
	// DigestIntervalNS, when positive, records an interval state digest
	// every DigestIntervalNS of simulated time in each run (see
	// internal/digest); RunSpaceDigests returns the streams alongside
	// the space. Serialized with the spec so a -resume replays the same
	// cadence it journaled.
	DigestIntervalNS int64 `json:"digest_interval_ns,omitempty"`
	// Resilience carries the crash-safety plumbing (journal, resume
	// cache, drain signal, observer); the zero value means
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
	// Cache, when non-nil, is the store of settled runs: runs whose
	// (experiment, config hash, seed, index) key has an ok record are
	// merged from it instead of re-run, and every run a plan settles is
	// filed into it. Loaded from a journal it is the resume cache;
	// harness.New makes an empty one when none is given, so a space two
	// experiments ask for is simulated once.
	Cache *journal.Cache
	// Stop, when non-nil, drains the fleet once closed: in-flight runs
	// finish and are journaled, unstarted runs are reported in
	// Space.Missing.
	Stop <-chan struct{}
	// Observe, when non-nil, sees every successful run's result — live
	// from the worker that settled it, and for cache hits replayed in
	// index order on the calling goroutine before any run of the plan
	// executes — so a resumed experiment feeds the same observations a
	// fresh one would. With a Cache it fires at most once per run key in
	// a process (journal.Cache.Take), however often the run replays. It
	// is a pure observer for the precision observatory
	// (internal/precision): it must never feed anything back into the
	// simulation, and because live calls arrive in host completion
	// order, its state is not part of the byte-identical output
	// contract. Implementations must be safe for concurrent calls.
	Observe func(key journal.Key, r machine.Result)
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
	return NewCheckpoint(e.Config, e.Workload, e.WorkloadSeed, rng.Derive(e.SeedBase, 0), e.WarmupTxns)
}

// NewCheckpoint is the one way to a warmed machine: it builds the named
// workload's machine and runs warmupTxns transactions on it. The state
// is a pure function of the five arguments, which is what lets a
// checkpoint be named by a recipe (internal/checkpoint) and rebuilt by
// replay. The caller validates cfg.
func NewCheckpoint(cfg config.Config, workload string, workloadSeed, perturbSeed uint64, warmupTxns int64) (*machine.Machine, error) {
	wl, err := workloads.New(workload, cfg, workloadSeed)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(cfg, wl, perturbSeed)
	if err != nil {
		return nil, err
	}
	if warmupTxns > 0 {
		if _, err := m.Run(warmupTxns); err != nil {
			return nil, fmt.Errorf("core: warmup: %w", err)
		}
	}
	return m, nil
}

// RunSpace performs the experiment: it warms up once, snapshots, and
// branches Runs perturbed futures — exactly the paper's multiple-runs
// methodology (§3.3, §5.1). The branches execute on e.Workers fleet
// workers.
func (e Experiment) RunSpace() (Space, error) {
	b, err := e.Branch(e.spacePlan())
	return b.Space(), err
}

// BranchPlan is the experiment as a plan: all Runs runs, digests at the
// experiment's cadence, no trace.
func (e Experiment) BranchPlan() BranchPlan {
	return BranchPlan{
		Label: e.Label, N: e.Runs, MeasureTxns: e.MeasureTxns, SeedBase: e.SeedBase,
		Workers: e.Workers, DigestIntervalNS: e.DigestIntervalNS, Resilience: e.Resilience,
	}
}

// spacePlan is BranchPlan without capture: the runs behind a bare Space.
func (e Experiment) spacePlan() BranchPlan {
	p := e.BranchPlan()
	p.DigestIntervalNS = 0
	return p
}

// Branch runs a plan against the experiment's checkpoint, prepared only
// if some run of the plan is not in the store (branch). The experiment
// is validated first, so a plan that replays wholly, or has no run,
// still refuses an experiment that could not run.
func (e Experiment) Branch(p BranchPlan) (Branched, error) {
	if err := e.Validate(); err != nil {
		return Branched{}, err
	}
	return branch(journal.ConfigHash(e.Config), e.Prepare, p)
}

// RunKey returns run i's journal key — the identity the experiment's
// run and digest records are filed under. Exposed so tools reading a
// journal post-hoc (varsim diff) address runs exactly as the fleet
// wrote them.
func (e Experiment) RunKey(i int) journal.Key {
	return e.BranchPlan().key(journal.ConfigHash(e.Config), i)
}

// validateCheckpoints checks a time-sampling request: the experiment
// itself, and a non-empty, strictly ascending list of cumulative
// transaction counts.
func (e Experiment) validateCheckpoints(checkpoints []int64) error {
	if len(checkpoints) == 0 {
		return errors.New("core: no checkpoints")
	}
	for i := 1; i < len(checkpoints); i++ {
		if checkpoints[i] <= checkpoints[i-1] {
			return errors.New("core: checkpoints must be ascending")
		}
	}
	return e.Validate()
}

// strata returns the time sample's strata, one per checkpoint (ck
// cumulative transactions), for TimeSample and AdaptiveTimeSample
// alike: each is the experiment's arm under label "<label>@<ck>" and a
// seed base derived from the checkpoint's index, over its own base.
// Every base is a snapshot of one machine walked forward through
// the checkpoints, started by the first stratum that must execute a run.
// A stratum asking after the walk has passed its checkpoint (a resumed
// schedule whose earlier strata replayed) restarts it cold.
func (e Experiment) strata(checkpoints []int64, spent *fleet.Pool[*machine.Machine]) []*arm {
	var walk *machine.Machine
	var done int64
	arms := make([]*arm, len(checkpoints))
	for ci, ck := range checkpoints {
		s := e
		s.Label = fmt.Sprintf("%s@%d", e.Label, ck)
		s.SeedBase = rng.Derive(e.SeedBase, 0x100+uint64(ci))
		arms[ci] = s.arm(spent)
		arms[ci].base = func() (*machine.Machine, error) {
			var err error
			if walk == nil || done >= ck {
				if walk, err = NewCheckpoint(e.Config, e.Workload, e.WorkloadSeed, rng.Derive(e.SeedBase, 0), ck); err != nil {
					return nil, err
				}
			} else if _, err = walk.Run(ck - done); err != nil {
				return nil, fmt.Errorf("core: warmup to checkpoint %d: %w", ck, err)
			}
			done = ck
			return walk.Snapshot(), nil
		}
	}
	return arms
}

// TimeSample implements §5.2's systematic sampling of a workload's
// lifetime: it warms the workload to each checkpoint in turn (the
// checkpoints slice holds cumulative transaction counts, ascending) and
// branches a space of Runs runs from each — one round of every
// stratum. The returned spaces feed ANOVA to decide whether time
// variability is significant. A stratum the cache covers replays
// without a checkpoint, so a fully covered sample warms nothing.
func (e Experiment) TimeSample(checkpoints []int64) ([]Space, error) {
	if err := e.validateCheckpoints(checkpoints); err != nil {
		return nil, err
	}
	var spent fleet.Pool[*machine.Machine] // one checkpoint's last branches are the next one's first
	spaces := make([]Space, len(checkpoints))
	for ci, a := range e.strata(checkpoints, &spent) {
		a.want = e.Runs
		if err := a.next(); err != nil {
			return nil, err
		}
		a.ckpt = nil // the walk holds the next checkpoint; this one is done
		spaces[ci] = a.sp
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
