// Package varsim is a full-system multiprocessor simulation framework
// and statistical methodology for evaluating multi-threaded workloads,
// reproducing Alameldeen & Wood, "Variability in Architectural
// Simulations of Multi-threaded Workloads" (HPCA-9, 2003).
//
// The framework has two halves:
//
//   - A deterministic execution-driven simulator of a 16-node
//     shared-memory multiprocessor (MOSI snooping coherence, split L1 /
//     unified L2 caches, hierarchical crossbar, banked DRAM, disks, an
//     operating-system model with per-CPU run queues and blocking locks,
//     and two processor models: a simple blocking core and a 4-wide
//     out-of-order core with YAGS/indirect/RAS branch prediction),
//     running synthetic stand-ins for the paper's seven workloads.
//
//   - The paper's statistical methodology: pseudo-random timing
//     perturbation to expose workload variability, multiple-run sample
//     spaces, the Wrong Conclusion Ratio, confidence intervals,
//     hypothesis tests, ANOVA, and sample-size planning.
//
// # Quick start
//
//	cfg := varsim.DefaultConfig()
//	exp := varsim.Experiment{
//	    Label: "4-way", Config: cfg, Workload: "oltp",
//	    WorkloadSeed: 1, WarmupTxns: 500, MeasureTxns: 200,
//	    Runs: 20, SeedBase: 42,
//	}
//	space, err := exp.RunSpace()   // 20 perturbed runs from one checkpoint
//	fmt.Println(space.Summary())   // mean/σ/min/max/CoV of cycles per txn
//
// Compare two configurations safely:
//
//	cmp, err := varsim.Compare(spaceA, spaceB, 0.95)
//	fmt.Println(cmp.WCRPct)            // single-run wrong-conclusion risk
//	fmt.Println(cmp.Conclusion(0.05))  // hypothesis-test verdict
package varsim

import (
	"io"

	"varsim/internal/checkpoint"
	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/digest"
	"varsim/internal/harness"
	"varsim/internal/machine"
	"varsim/internal/metrics"
	"varsim/internal/sampling"
	"varsim/internal/stats"
	"varsim/internal/trace"
	"varsim/internal/workload"
	"varsim/internal/workloads"
)

// Config is the target-system configuration (geometry, latencies,
// operating-system and perturbation parameters).
type Config = config.Config

// CacheConfig describes one cache level.
type CacheConfig = config.CacheConfig

// OOOConfig parameterizes the detailed out-of-order processor model.
type OOOConfig = config.OOOConfig

// ProcessorKind selects the processor model.
type ProcessorKind = config.ProcessorKind

// Processor model selectors.
const (
	SimpleProc = config.SimpleProc
	OOOProc    = config.OOOProc
)

// Machine is a runnable simulated system.
type Machine = machine.Machine

// Result is the measurement of one simulation window.
type Result = machine.Result

// Workload is a live workload instance (threads + shared state).
type Workload = workload.Instance

// Experiment describes a multi-run simulation experiment.
type Experiment = core.Experiment

// Space is a sample of runtimes from perturbed runs of one
// configuration.
type Space = core.Space

// Comparison is the statistical comparison of two configurations.
type Comparison = core.Comparison

// Plan holds run-count estimates for designing an experiment.
type Plan = core.Plan

// SamplingTarget is the adaptive scheduler's stopping/pruning target:
// requested precision, pilot size and the run budget of each arm
// (docs/SAMPLING.md). Experiment.AdaptiveSpace and AdaptiveMatrix take
// one; Experiment.Adaptive only carries it in a saved spec, for
// -resume — RunSpace is fixed-N whatever the field holds.
type SamplingTarget = sampling.Target

// SamplingReport records an adaptive schedule's outcome: achieved vs
// requested precision per arm, pruned configurations, and the runs
// saved against the fixed-N baseline.
type SamplingReport = sampling.Report

// SamplingArm is one configuration's slice of a SamplingReport.
type SamplingArm = sampling.Arm

// AdaptiveMatrix runs a configuration matrix with per-arm early
// stopping and mid-matrix pruning (see core.AdaptiveMatrix).
func AdaptiveMatrix(es []Experiment, t SamplingTarget) ([]Space, SamplingReport, error) {
	return core.AdaptiveMatrix(es, t)
}

// Summary holds descriptive statistics of a sample.
type Summary = stats.Summary

// ConfidenceInterval is a two-sided interval for a population mean.
type ConfidenceInterval = stats.ConfidenceInterval

// TTestResult is the outcome of the one-sided two-sample t-test.
type TTestResult = stats.TTestResult

// ANOVAResult is the outcome of a one-way analysis of variance.
type ANOVAResult = stats.ANOVAResult

// NormalityResult is the outcome of the Jarque-Bera normality check.
type NormalityResult = stats.NormalityResult

// TraceEvent is one structured execution-trace record (see
// Machine.EnableTrace).
type TraceEvent = trace.Event

// TraceBuffer accumulates structured trace events.
type TraceBuffer = trace.Buffer

// LockStats summarizes one lock's contention over a trace.
type LockStats = trace.LockStats

// ThreadStats summarizes one thread's schedule over a trace.
type ThreadStats = trace.ThreadStats

// Divergence quantifies where two runs' schedules split (Figure 1).
type Divergence = trace.Divergence

// DefaultConfig returns the paper's target system: 16 nodes, 128 KB
// 4-way split L1s, 4 MB 4-way L2, MOSI snooping, 180 ns memory / 125 ns
// cache-to-cache, 0-4 ns perturbation on L2 misses.
func DefaultConfig() Config { return config.Default() }

// Workloads lists the available workload names (Table 3's seven
// benchmarks).
func Workloads() []string { return workloads.Names() }

// DefaultTxns returns the Table 3 per-benchmark run length.
func DefaultTxns(name string) int64 { return workloads.DefaultTxns(name) }

// NewWorkload builds workload name under cfg with the given identity
// seed. Runs that share a workload instance seed start from identical
// initial conditions.
func NewWorkload(name string, cfg Config, seed uint64) (Workload, error) {
	return workloads.New(name, cfg, seed)
}

// NewMachine assembles a simulated system running wl. perturbSeed
// selects the run's timing-perturbation stream (§3.3 of the paper).
func NewMachine(cfg Config, wl Workload, perturbSeed uint64) (*Machine, error) {
	return machine.New(cfg, wl, perturbSeed)
}

// BranchSpace branches n perturbed measurement runs from a warmed
// checkpoint machine — Branch's one-line form. workers sets the fleet
// width for the runs: 0 or 1 runs them sequentially, n > 1 uses n
// parallel workers, negative uses one worker per host CPU. Results merge
// by run index, so the space is byte-identical for every worker count
// (docs/PARALLELISM.md).
func BranchSpace(checkpoint *Machine, label string, n int, measureTxns int64, seedBase uint64, workers int) (Space, error) {
	return core.BranchSpace(checkpoint, label, n, measureTxns, seedBase, workers)
}

// Resilience bundles the optional crash-safety plumbing — result
// journal, resume cache, per-run timeout/retry budget, drain signal —
// threaded through an Experiment or a BranchPlan. The zero value is
// plain execution. See docs/RESILIENCE.md.
type Resilience = core.Resilience

// BranchPlan says which perturbed runs to branch from a checkpoint —
// label, index range, run length, seed base, fleet width — what each
// captures (interval digests, the structured event trace) and the
// crash-safety plumbing they run under.
type BranchPlan = core.BranchPlan

// Branched is a plan's outcome, one record per run; Space, Digests and
// Traces project it.
type Branched = core.Branched

// Branch branches a plan's perturbed runs from a warmed checkpoint
// machine: journal appends as runs settle, resume-cache replay, per-run
// timeout and bounded retry (a retried run re-derives its original
// seed), graceful drain into a partial outcome. Run i reproduces run i
// of every other plan over the same checkpoint and seed base, whatever
// either captures; feed Traces to internal/traceviz for side-by-side
// Perfetto export.
func Branch(checkpoint *Machine, plan BranchPlan) (Branched, error) {
	return core.Branch(checkpoint, plan)
}

// DigestSeries is one run's chained interval state-digest stream (see
// Machine.EnableDigests): one hash-chain vector per interval of
// simulated time, one chain per simulated component.
type DigestSeries = digest.Series

// DigestDivergence locates the first interval at which two runs'
// digest streams fork and the component that forked first. (Distinct
// from Divergence, which compares scheduler dispatch traces.)
type DigestDivergence = digest.Divergence

// DivergenceAttribution aggregates first-divergence points across all
// perturbed runs of a space — when runs fork, where they fork first,
// and whether early forks predict large final-metric spread.
type DivergenceAttribution = digest.Attribution

// SpaceDigests bundles a space's per-run digest streams, index-aligned
// with the space's runs.
type SpaceDigests = core.SpaceDigests

// DiffDigests binary-searches two digest streams for their first
// divergent interval.
func DiffDigests(a, b DigestSeries) DigestDivergence { return digest.Diff(a, b) }

// AttributeDivergence diffs every stream against stream 0 (the
// baseline) and aggregates the fork points; values holds the runs'
// final metric (CPT), index-aligned with series.
func AttributeDivergence(series []DigestSeries, values []float64) DivergenceAttribution {
	return digest.Attribute(series, values)
}

// MetricsRegistry is the typed registry of named counters, gauges and
// histograms every machine wires over its components (see
// Machine.Metrics).
type MetricsRegistry = metrics.Registry

// MetricSeries is an interval-sampled metric time series (see
// Machine.EnableSampling and SampleRun).
type MetricSeries = metrics.TimeSeries

// MetricSnapshot is a point-in-time reading of a metrics registry, as
// delivered to Machine.SetSampleHook observers.
type MetricSnapshot = metrics.Snapshot

// SampleRun branches one perturbed run of measureTxns transactions from
// a warmed checkpoint machine with the metrics registry sampled every
// intervalNS of simulated time, returning the run's measurement and the
// sampled series — live instrumentation for the paper's per-interval
// figures.
func SampleRun(checkpoint *Machine, measureTxns int64, perturbSeed uint64, intervalNS int64) (Result, MetricSeries, error) {
	return core.SampleRun(checkpoint, measureTxns, perturbSeed, intervalNS)
}

// SimulatedCycles returns the process-wide total of simulated cycles
// advanced by measurement windows — the numerator of the
// sim-cycles-per-second throughput the run manifests report.
func SimulatedCycles() int64 { return machine.SimulatedCycles() }

// WCR computes the Wrong Conclusion Ratio (§4.1): the fraction of all
// single-run comparison pairs that contradict the relationship between
// the two configurations' mean performance.
func WCR(a, b []float64) float64 { return core.WCR(a, b) }

// Compare applies the paper's §5.1 procedures (CI overlap, one-sided
// t-test, WCR) to two spaces.
func Compare(a, b Space, confidence float64) (Comparison, error) {
	return core.Compare(a, b, confidence)
}

// ANOVAOverCheckpoints decides whether time variability across
// checkpoints is significant relative to space variability (§5.2).
func ANOVAOverCheckpoints(spaces []Space) (ANOVAResult, error) {
	return core.ANOVAOverCheckpoints(spaces)
}

// PlanRuns sizes an experiment from pilot spaces (§5.1).
func PlanRuns(pilotA, pilotB Space, relErr, alpha float64) Plan {
	return core.PlanRuns(pilotA, pilotB, relErr, alpha)
}

// CI returns the Student-t confidence interval for the mean of xs.
func CI(xs []float64, confidence float64) (ConfidenceInterval, error) {
	return stats.CI(xs, confidence)
}

// TTestOneSided tests H0: mean(a) = mean(b) against mean(a) > mean(b)
// with the paper's equal-n statistic (§5.1.2).
func TTestOneSided(a, b []float64) (TTestResult, error) {
	return stats.TTestOneSided(a, b)
}

// OneWayANOVA runs a one-way fixed-effects analysis of variance.
func OneWayANOVA(groups [][]float64) (ANOVAResult, error) {
	return stats.OneWayANOVA(groups)
}

// Summarize computes descriptive statistics (mean, σ, min/max, CoV,
// range of variability).
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// SampleSizeRelErr returns the runs needed to bound the mean's relative
// error (§5.1.1). cov is the coefficient of variation as a fraction.
func SampleSizeRelErr(cov, relErr, confidence float64) int {
	return stats.SampleSizeRelErr(cov, relErr, confidence)
}

// JarqueBera checks a run space for normality — the assumption behind
// Student-t intervals and tests.
func JarqueBera(xs []float64) (NormalityResult, error) { return stats.JarqueBera(xs) }

// BootstrapCI returns a percentile-bootstrap confidence interval for the
// mean: a normality-free alternative to CI.
func BootstrapCI(xs []float64, confidence float64, resamples int, seed uint64) (ConfidenceInterval, error) {
	return stats.BootstrapCI(xs, confidence, resamples, seed)
}

// LockReport computes per-lock contention statistics from a trace.
func LockReport(events []TraceEvent) []LockStats { return trace.LockReport(events) }

// ThreadTimeline computes per-thread scheduling statistics from a trace.
func ThreadTimeline(events []TraceEvent) []ThreadStats { return trace.ThreadTimeline(events) }

// CompareDispatches locates the divergence point of two runs' schedules.
func CompareDispatches(a, b []TraceEvent) Divergence { return trace.CompareDispatches(a, b) }

// FormatLockReport renders the top-n lock report as text.
func FormatLockReport(statsList []LockStats, n int) string {
	return trace.FormatLockReport(statsList, n)
}

// Recipe is a disk-persistable checkpoint: the machine's exact initial
// conditions, rebuilt by deterministic replay.
type Recipe = checkpoint.Recipe

// RecipeFromExperiment captures the checkpoint an Experiment's warmup
// produces, for persisting with SaveRecipe.
func RecipeFromExperiment(e Experiment) Recipe { return checkpoint.FromExperiment(e) }

// SaveRecipe writes a checkpoint recipe to path as JSON.
func SaveRecipe(path string, r Recipe) error { return checkpoint.SaveFile(path, r) }

// LoadRecipe reads a checkpoint recipe from path.
func LoadRecipe(path string) (Recipe, error) { return checkpoint.LoadFile(path) }

// PaperExperiments lists the reproduction experiments (one per table and
// figure of the paper).
func PaperExperiments() []string {
	var names []string
	for _, e := range harness.Experiments() {
		names = append(names, e.Name)
	}
	return names
}

// RunPaperExperiment regenerates one of the paper's tables or figures,
// writing the rendered rows to out. quick scales the experiment down for
// smoke runs; the full version keeps the paper's structure (20 runs per
// configuration on a 16-processor target). The experiment runs
// sequentially; use the harness directly (or the CLIs' -j flag) for a
// parallel fleet.
func RunPaperExperiment(name string, out io.Writer, seed uint64, quick bool) error {
	e, ok := harness.Find(name)
	if !ok {
		return errUnknownExperiment(name)
	}
	return harness.New(harness.Options{Out: out, Seed: seed, Quick: quick}).RunOne(e)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "varsim: unknown experiment " + string(e) + " (see PaperExperiments)"
}
