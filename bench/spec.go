package main

import "fmt"

// metricSpec declares one metric the way BENCHMARK.json lists it.
// Bound is the share of the other side's median an end-to-end metric may
// worsen by before -compare (and the A/B driver) calls it a regression;
// per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a varsim user feels, reported on every
// workload. All are host-side; simulated results are checked, not timed.
// Everything clocked has the widest bound the driver allows, because two
// runs of one commit on this host differ by up to a quarter (README.md,
// "A/A"); allocation repeats, and its bound covers the 2-3% that
// study_quick's work moves with the seed.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},                   // host seconds for one iteration, tracing off
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25}, // simulated instructions of the measured runs per host second / 1e6
	{"host_ns_per_event", "ns", "lower", 0.25},       // host time per simulated event of the measured runs
	{"runs_per_s", "1/s", "higher", 0.25},            // measured perturbed runs completed per host second
	{"alloc_mb_per_op", "MB", "lower", 0.10},         // Go heap allocated by one iteration
	{"peak_rss_mb", "MB", "lower", 0.25},             // VmHWM after the timed iterations, one workload per process
	{"setup_s", "s", "lower", 0.25},                  // one build of the workload's starting state
}

// perLayer is the per-layer budget, reported on every workload by the
// traced pass; a metric a workload does not exercise reads 0 there.
var perLayer = func() []metricSpec {
	row := func(unit, better string, names ...string) (out []metricSpec) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
		return out
	}
	ns := func(names ...string) []metricSpec { return row("ns", "lower", names...) }
	var s []metricSpec
	add := func(ms []metricSpec) { s = append(s, ms...) }

	add(ns("sim.step_ns"))
	add(row("count", "lower", "sim.events"))
	add(ns("mem.probe_hit_ns", "mem.probe_miss_ns", "mem.fill_ns", "mem.grant_read_ns", "mem.grant_write_ns", "mem.probe_first_touch_ns"))
	add(row("count", "lower", "mem.l1d_misses", "mem.l2_misses", "mem.bus_requests", "mem.cache_to_cache", "mem.writebacks"))
	add(row("1/kinstr", "lower", "mem.l2_miss_per_kinstr"))
	add(ns("dram.access_ns"))
	add(row("count", "lower", "dram.mem_fetches"))
	add(ns("kernel.pick_next_ns"))
	add(row("count", "lower", "kernel.ctx_switches", "kernel.preempts", "kernel.lock_contentions"))
	add(ns("bpred.predict_cond_ns", "bpred.first_write_ns"))
	add(ns("workload.txn_next_ns", "workload.sci_next_ns"))
	add(row("ms", "lower", "machine.new_ms", "machine.warmup_ms", "machine.materialize_ms"))
	add(row("us", "lower", "machine.snapshot_us", "machine.branch_window_us"))
	add(row("KB", "lower", "machine.snapshot_kb", "machine.branch_fault_kb"))
	add(ns("machine.run_ns_per_instr"))
	add(row("count", "lower", "machine.instrs"))
	add(row("ns/txn", "lower", "machine.cpt"))
	add(row("instr/cycle", "higher", "machine.ipc"))
	add(row("%", "lower", "core.branch_overhead_pct"))
	add(row("us", "lower", "core.compare_us"))
	add(ns("fleet.dispatch_ns_per_job", "fleet.dispatch_ns_per_job_jN"))
	add(row("x", "higher", "fleet.speedup_jN"))
	add(row("us", "lower", "journal.append_us", "journal.load_us_per_record", "journal.replay_us_per_run"))
	add(ns("journal.encode_ns"))
	add(row("B", "lower", "journal.bytes_per_record"))
	add(row("count", "lower", "journal.records"))
	add(row("ms", "lower", "checkpoint.build_ms"))
	add(row("us", "lower", "checkpoint.basecache_hit_us"))
	add(ns("sampling.decide_ns"))
	add(row("count", "lower", "sampling.runs_executed", "sampling.rounds"))
	add(row("%", "higher", "sampling.runs_saved_pct"))
	add(row("s", "lower", "sampling.verdict_s"))
	add(ns("stats.ci_ns", "stats.ttest_ns", "stats.anova_ns", "stats.stream_add_ns"))
	for _, e := range fullScale.Experiments {
		add(row("s", "lower", "harness.exp_s."+e))
	}
	add(row("ms", "lower", "report.render_ms"))
	add(row("%", "lower", "metrics.sampling_overhead_pct", "digest.overhead_pct", "trace.overhead_pct"))
	for _, l := range shareLayers {
		add(row("%", "lower", l+".cpu_share_pct"))
	}
	add(row("%", "lower", "runtime.alloc_cpu_share_pct"))
	add(row("count", "higher", "profile.samples"))
	add(row("count", "lower", "runtime.num_gc"))
	add(row("ms", "lower", "runtime.gc_pause_ms"))
	add(row("%", "lower", "bench.trace_overhead_pct"))
	return s
}()

// benchmarkSpec is BENCHMARK.json: `bench -spec` prints it and the smoke
// test holds the checked-in file to it.
type benchmarkSpec struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []metricSpec    `json:"end_to_end"`
	PerLayer   []metricSpec    `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// defaultSeconds is the measuring budget of one run: BENCHMARK.json's
// run_seconds and the -seconds default.
const defaultSeconds = 12

func spec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloadTable {
		s.Workloads = append(s.Workloads, workloadEntry{w.name, w.why})
	}
	return s
}

func findWorkload(name string) (workloadInfo, error) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, nil
		}
	}
	return workloadInfo{}, fmt.Errorf("no workload %q", name)
}
