// Command bench is varsim's benchmark spine: five named workloads run
// as a closed loop with one client at fleet width 1, seven end-to-end
// metrics on each, and — in a separate traced pass — a per-layer budget
// taken from outside the program: micro-drivers over each layer's public
// functions, bench-level spans, exact simulated counts and a CPU profile
// attributed to packages. BENCHMARK.json at the repository root declares
// the same names; README.md says why each was chosen.
//
//	go run ./bench                               every workload, one process each
//	go run ./bench -workload steady_oltp         one workload, tracing off
//	go run ./bench -workload steady_oltp -trace 1   its per-layer budget
//	go run ./bench -out A.json                   keep the full record
//	go run ./bench -compare A.json B.json        apply the bounds to two records
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics of the pass that ran.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// tmpRoot is where a run keeps its journals and reports: inside the
// working directory, named in .gitignore, removed on the way out.
const tmpRoot = ".bench_tmp"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all five, one process each")
	seed := fs.Uint64("seed", 0xA1A3, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of timed iterations per workload")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "write the full record (metadata, samples, quartiles, spans) to this file")
	compare := fs.Bool("compare", false, "compare two records: bench -compare A.json B.json")
	printSpec := fs.Bool("spec", false, "print BENCHMARK.json as this program declares it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *printSpec:
		b, err := json.MarshalIndent(spec(), "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two record files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case fs.NArg() != 0:
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		return fail(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}

	rec := record{Meta: hostMeta(*seed, *seconds)}
	if err := rec.Meta.print(stdout); err != nil {
		return fail(err)
	}
	if *name == "" {
		if err := runAll(&rec, args, stdout, stderr); err != nil {
			return fail(err)
		}
	} else {
		info, err := findWorkload(*name)
		if err != nil {
			return fail(err)
		}
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return fail(err)
		}
		tmp, err := os.MkdirTemp(tmpRoot, info.name+"-")
		if err != nil {
			return fail(err)
		}
		e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, sc: fullScale, tmp: tmp, nproc: runtime.NumCPU()}
		wr, err := runWorkload(info, e, *trace == 1)
		os.RemoveAll(tmp)
		os.Remove(tmpRoot) // succeeds once the last concurrent run has left
		if err != nil {
			return fail(fmt.Errorf("%s: %w", info.name, err))
		}
		rec.Workloads = append(rec.Workloads, wr)
		wr.print(stdout)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if err := rec.printResult(stdout); err != nil {
		return fail(err)
	}
	if rec.failed() > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, so each has its own
// peak resident set and starts from a cold heap, and gathers the
// children's records into rec.
func runAll(rec *record, args []string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "all-")
	if err != nil {
		return err
	}
	defer os.Remove(tmpRoot)
	defer os.RemoveAll(dir)
	for _, w := range workloadTable {
		part := filepath.Join(dir, w.name+".json")
		// Later flags win, so the child keeps the caller's seed, seconds
		// and trace but takes its workload and record file from here.
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name, "-out", part)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run()
		var child record
		if b, err := os.ReadFile(part); err != nil {
			return fmt.Errorf("%s: %w", w.name, errors.Join(runErr, err))
		} else if err := json.Unmarshal(b, &child); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rec.Workloads = append(rec.Workloads, child.Workloads...)
	}
	return nil
}

// meta is the host and record metadata every output carries.
type meta struct {
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Loop       string `json:"loop"`
	Scale      scale  `json:"scale"`
	Validation string `json:"validation"`
}

func hostMeta(seed uint64, seconds int) meta {
	m := meta{
		Commit: "unknown", Seed: seed, Seconds: seconds,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown",
		Loop:     "closed loop, 1 client, fleet width 1",
		Scale:    fullScale,
		Validation: "the model is unvalidated against hardware: the repository holds no reference results, " +
			"so no accuracy figure is given; simulated outputs are checked for self-consistency only",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// print writes the metadata block that heads every output.
func (m meta) print(out io.Writer) error {
	sc, err := json.Marshal(m.Scale)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "varsim bench: commit %s, seed %#x, %d s of timed iterations per workload\n"+
		"host: %s, GOMAXPROCS %d, nproc %d, %s\nload: %s\nscale: %s\nnote: %s\n",
		m.Commit, m.Seed, m.Seconds, m.GoVersion, m.GOMAXPROCS, m.NProc, m.CPUModel, m.Loop, sc, m.Validation)
	return err
}

// metric is one reported number: the median of its per-repeat samples
// when it has any, with the quartiles beside it.
type metric struct {
	Name     string    `json:"name"`
	Unit     string    `json:"unit"`
	Value    float64   `json:"value"`
	Q1       float64   `json:"q1,omitempty"`
	Q3       float64   `json:"q3,omitempty"`
	N        int       `json:"n,omitempty"`
	Samples  []float64 `json:"samples,omitempty"`
	Withheld string    `json:"withheld,omitempty"`
}

func sampled(s metricSpec, xs []float64) metric {
	q1, med, q3 := quartiles(xs)
	return metric{Name: s.Name, Unit: s.Unit, Value: med, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// workloadRecord is one workload's pass: end-to-end metrics untraced,
// per-layer metrics and spans traced.
type workloadRecord struct {
	Name        string    `json:"name"`
	Why         string    `json:"why"`
	CacheState  string    `json:"cache_state"`
	Traced      bool      `json:"traced"`
	Ops         int       `json:"ops"`
	FailedOps   int       `json:"failed_ops"`
	Failures    []string  `json:"failures,omitempty"`
	SimChecksum string    `json:"sim_checksum"`
	Metrics     []metric  `json:"metrics"`
	Spans       []spanRow `json:"spans,omitempty"`
}

type record struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadRecord `json:"workloads"`
}

func (r record) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.FailedOps
	}
	return n
}

// runWorkload measures one workload and shapes what it learned into the
// metrics BENCHMARK.json declares for the pass.
func runWorkload(info workloadInfo, e *env, traced bool) (workloadRecord, error) {
	m, err := measure(info.make(e), e, traced)
	if err != nil {
		return workloadRecord{}, err
	}
	wr := workloadRecord{
		Name: info.name, Why: info.why, CacheState: info.cache, Traced: traced,
		Ops: m.ops, FailedOps: m.failed, Failures: m.msgs, SimChecksum: m.checksum, Spans: m.spans,
	}
	if traced {
		wr.Metrics = m.perLayerMetrics()
	} else {
		wr.Metrics = m.endToEndMetrics()
	}
	for _, x := range wr.Metrics {
		if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			return wr, fmt.Errorf("metric %s is %v", x.Name, x.Value)
		}
	}
	return wr, nil
}

func (m *measured) endToEndMetrics() []metric {
	per := map[string][]float64{}
	for _, it := range m.iters {
		s := it.wall.Seconds()
		per["wall_s"] = append(per["wall_s"], s)
		per["sim_minstr_per_s"] = append(per["sim_minstr_per_s"], float64(it.t.instrs)/s/1e6)
		per["host_ns_per_event"] = append(per["host_ns_per_event"], s*1e9/float64(it.t.events))
		per["runs_per_s"] = append(per["runs_per_s"], float64(it.t.runs)/s)
		per["alloc_mb_per_op"] = append(per["alloc_mb_per_op"], float64(it.alloc)/(1<<20))
	}
	per["setup_s"] = m.setupS
	var out []metric
	for _, s := range endToEnd {
		if s.Name == "peak_rss_mb" {
			out = append(out, metric{Name: s.Name, Unit: s.Unit, Value: m.peakRSS})
			continue
		}
		out = append(out, sampled(s, per[s.Name]))
	}
	return out
}

func (m *measured) perLayerMetrics() []metric {
	why := m.shares.withheld()
	var out []metric
	for _, s := range perLayer {
		x := metric{Name: s.Name, Unit: s.Unit, Value: m.layer[s.Name]}
		if layer, ok := strings.CutSuffix(s.Name, ".cpu_share_pct"); ok {
			x.Withheld = why
			if why == "" {
				x.Value = m.shares.pct(m.shares.Layer[layer])
				x.N = int(m.shares.Layer[layer])
			}
		}
		switch s.Name {
		case "runtime.alloc_cpu_share_pct":
			x.Withheld = why
			if why == "" {
				x.Value, x.N = m.shares.pct(m.shares.Alloc), int(m.shares.Alloc)
			}
		case "profile.samples":
			x.Value = float64(m.shares.Samples)
		}
		out = append(out, x)
	}
	return out
}

// print writes the workload's metrics by name, with units, quartiles
// and sample counts.
func (w workloadRecord) print(out io.Writer) {
	pass := "untraced"
	if w.Traced {
		pass = "traced"
	}
	fmt.Fprintf(out, "== %s (%s pass; %s)\n", w.Name, pass, w.CacheState)
	fmt.Fprintf(out, "   sim_checksum %s   ops %d   failed_ops %d\n", w.SimChecksum, w.Ops, w.FailedOps)
	for _, f := range w.Failures {
		fmt.Fprintf(out, "   FAILED: %s\n", f)
	}
	for _, m := range w.Metrics {
		switch {
		case m.Withheld != "":
			fmt.Fprintf(out, "   %-34s %14s %-11s (%s)\n", m.Name, "withheld", m.Unit, m.Withheld)
		case len(m.Samples) > 0:
			fmt.Fprintf(out, "   %-34s %14.6g %-11s q1 %.6g  q3 %.6g  n %d  %v\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N, m.Samples)
		case m.N > 0:
			fmt.Fprintf(out, "   %-34s %14.6g %-11s %d samples\n", m.Name, m.Value, m.Unit, m.N)
		default:
			fmt.Fprintf(out, "   %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, s := range w.Spans {
		fmt.Fprintf(out, "   span %-29s %14.6g s total  %.6g s self  x%d\n", s.Name, s.TotalS, s.SelfS, s.Count)
	}
}

// printResult writes the closing line the A/B driver reads. A pass over
// several workloads has no single metric set, so it reports the counts
// alone.
func (r record) printResult(out io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, w := range r.Workloads {
		res.Attempted += w.Ops
		res.Failed += w.FailedOps
		if len(r.Workloads) == 1 {
			for _, m := range w.Metrics {
				res.Metrics[m.Name] = value{m.Value, m.Unit}
			}
		}
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// compareFiles applies every end-to-end metric's bound to the medians of
// two records, A the reference and B the candidate. It reports whether B
// regressed: a metric worse by more than its bound, or a larger share of
// failed ops. A sim_checksum that moved is printed, not judged: a model
// change moves it on purpose, a speed-up must not.
func compareFiles(out io.Writer, pathA, pathB string) (worse bool, err error) {
	load := func(path string) (record, error) {
		var r record
		b, err := os.ReadFile(path)
		if err != nil {
			return r, err
		}
		if err := json.Unmarshal(b, &r); err != nil {
			return r, fmt.Errorf("%s: %w", path, err)
		}
		return r, nil
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	bounds := map[string]metricSpec{}
	for _, s := range endToEnd {
		bounds[s.Name] = s
	}
	fmt.Fprintf(out, "A %s (commit %s, seed %#x)\nB %s (commit %s, seed %#x)\n", pathA, a.Meta.Commit, a.Meta.Seed, pathB, b.Meta.Commit, b.Meta.Seed)
	for _, wb := range b.Workloads {
		var wa *workloadRecord
		for i := range a.Workloads {
			if a.Workloads[i].Name == wb.Name && a.Workloads[i].Traced == wb.Traced {
				wa = &a.Workloads[i]
			}
		}
		if wa == nil {
			fmt.Fprintf(out, "%-17s only in B\n", wb.Name)
			continue
		}
		if wa.SimChecksum != wb.SimChecksum {
			fmt.Fprintf(out, "%-17s sim_checksum moved %s -> %s: the simulated results differ\n", wb.Name, wa.SimChecksum, wb.SimChecksum)
		}
		if wb.FailedOps*wa.Ops > wa.FailedOps*wb.Ops {
			fmt.Fprintf(out, "%-17s failed_ops %d/%d -> %d/%d\n", wb.Name, wa.FailedOps, wa.Ops, wb.FailedOps, wb.Ops)
			worse = true
		}
		for _, mb := range wb.Metrics {
			s, bounded := bounds[mb.Name]
			var ma *metric
			for i := range wa.Metrics {
				if wa.Metrics[i].Name == mb.Name {
					ma = &wa.Metrics[i]
				}
			}
			if !bounded || ma == nil || ma.Value == 0 {
				continue
			}
			change := mb.Value/ma.Value - 1
			if s.Better == "higher" {
				change = -change
			}
			// The run-to-run spread is the wider of the two sides'
			// quartile distances, as a share of the median.
			spread := math.Max(relSpread(*ma), relSpread(mb))
			verdict := "unchanged"
			switch {
			case change > s.Bound:
				verdict = "REGRESSION"
				worse = true
			case spread > s.Bound:
				verdict = "unresolved: spread exceeds the bound"
			case change < -s.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(out, "%-17s %-18s %12.6g -> %12.6g %-9s worse by %+6.2f%% (bound %g%%, spread %.2f%%)  %s\n",
				wb.Name, mb.Name, ma.Value, mb.Value, mb.Unit, 100*change, 100*s.Bound, 100*spread, verdict)
		}
	}
	return worse, nil
}

func relSpread(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return math.Abs((m.Q3 - m.Q1) / m.Value)
}
