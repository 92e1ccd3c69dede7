package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"varsim/internal/config"
	"varsim/internal/mem"
	"varsim/internal/sampling"
)

// tinyScale runs every workload and the whole traced pass in a few
// seconds: the smoke test checks the benchmark's plumbing, not its
// numbers.
var tinyScale = scale{
	NumCPUs: 4, SetupReps: 1, MaxSetupReps: 1, MinIters: 2, TracedIters: 1,
	MicroReps: 1, MicroOps: 2000, WarmTxns: 50,
	SteadyTxns: 50, TapTxns: 20,
	Branches: 12, WindowTxns: 2,
	BarnesRuns: 1, OceanRuns: 0,
	Experiments: []string{"table1"},
	Target:      sampling.Target{RelErr: 0.10, Confidence: 0.95, MinRuns: 3, MaxRuns: 5},
	StudyWarm:   20, StudyTxns: 10,
	Arms:       []string{"apache"},
	ReplayRuns: 3,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkJSON holds the checked-in BENCHMARK.json to
// what the program declares, and both to the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := spec()
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -spec`; regenerate it")
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range want.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, m := range want.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// TestSmoke runs every workload through both passes at tiny scale and
// checks that each emits exactly the declared metrics, finite and with
// their units, and that no correctness check — the checksum equalities
// across repeats, across fleet widths and against the materialized twin
// among them — fails.
func TestSmoke(t *testing.T) {
	for _, info := range workloadTable {
		t.Run(info.name, func(t *testing.T) {
			checksums := map[bool]string{}
			for _, traced := range []bool{false, true} {
				e := &env{seed: 0xA1A3, sc: tinyScale, tmp: t.TempDir(), nproc: 2}
				wr, err := runWorkload(info, e, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if wr.Ops == 0 || wr.FailedOps != 0 {
					t.Errorf("traced=%v: %d of %d ops failed: %v", traced, wr.FailedOps, wr.Ops, wr.Failures)
				}
				checksums[traced] = wr.SimChecksum
				declared := endToEnd
				if traced {
					declared = perLayer
				}
				if len(wr.Metrics) != len(declared) {
					t.Fatalf("traced=%v: %d metrics emitted, %d declared", traced, len(wr.Metrics), len(declared))
				}
				samples := 0.0
				for i, m := range wr.Metrics {
					if m.Name != declared[i].Name || m.Unit != declared[i].Unit {
						t.Errorf("metric %d is %s [%s], declared %s [%s]", i, m.Name, m.Unit, declared[i].Name, declared[i].Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", m.Name, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end %s = %v, must never be 0", m.Name, m.Value)
					}
					if m.Name == "profile.samples" {
						samples = m.Value
					}
				}
				for _, m := range wr.Metrics {
					if strings.HasSuffix(m.Name, "cpu_share_pct") && (m.Withheld == "") != (samples >= minProfileSamples) {
						t.Errorf("%s: withheld=%q with %v profile samples", m.Name, m.Withheld, samples)
					}
				}
				if traced && len(wr.Spans) == 0 {
					t.Error("the traced pass recorded no spans")
				}
			}
			if checksums[false] != checksums[true] {
				t.Errorf("sim_checksum %s untraced, %s traced", checksums[false], checksums[true])
			}
		})
	}
}

// TestResultLine checks the closing line's shape against the driver's
// contract.
func TestResultLine(t *testing.T) {
	rec := record{Workloads: []workloadRecord{{
		Name: "w", Ops: 7, FailedOps: 0,
		Metrics: []metric{{Name: "wall_s", Unit: "s", Value: 1.25}},
	}}}
	var out bytes.Buffer
	if err := rec.printResult(&out); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("no %q key in %s", k, out.String())
		}
	}
	if len(got) != 4 {
		t.Errorf("result has %d keys, want 4: %s", len(got), out.String())
	}
	if want := `{"wall_s":{"value":1.25,"unit":"s"}}`; string(got["metrics"]) != want {
		t.Errorf("metrics = %s, want %s", got["metrics"], want)
	}
}

// TestAttribute profiles a loop that lives in internal/mem and checks
// the decoder finds it there, and that every sample lands in a layer.
func TestAttribute(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	c := mem.NewCache(config.Default().L2)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for b := uint64(0); b < 1<<14; b++ {
			c.Fill(b, mem.Shared)
			c.Probe(b)
		}
	}
	pprof.StopCPUProfile()
	runtime.KeepAlive(c)
	s, err := attribute(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range shareLayers {
		sum += s.Layer[l]
	}
	if s.Samples == 0 || sum != s.Samples {
		t.Fatalf("%d samples, %d attributed to the declared layers: %v", s.Samples, sum, s.Layer)
	}
	// Under -race most leaf frames are the detector's, so ask only that
	// the loop's own package shows up.
	if s.Layer["mem"] == 0 {
		t.Errorf("mem has none of the %d samples of a loop over mem.Cache: %v", s.Samples, s.Layer)
	}
	if s.withheld() == "" {
		t.Errorf("a %d-sample profile must be withheld", s.Samples)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		fn, layer string
		alloc     bool
	}{
		{"varsim/internal/mem.(*Cache).find", "mem", false},
		{"varsim/internal/workloads.New", "workload", false},
		{"varsim/internal/digest.(*Hash).Word", "taps", false},
		{"varsim/internal/fleet.Run[go.shape.struct { varsim/internal/machine.Workload string }]", "fleet", false},
		{"varsim/internal/lint/callgraph.Build", "other", false},
		{"runtime.memclrNoHeapPointers", "runtime", true},
		{"runtime.mallocgc", "runtime", true},
		{"runtime.(*mspan).base", "runtime", true},
		{"runtime.futex", "runtime", false},
		{"internal/runtime/atomic.(*Uint32).Load", "runtime", false},
		{"encoding/json.(*encodeState).marshal", "std", false},
		{"syscall.Syscall", "std", false},
		{"main.microDrivers", "other", false},
		{"", "other", false},
	} {
		if layer, alloc := layerOf(c.fn); layer != c.layer || alloc != c.alloc {
			t.Errorf("layerOf(%q) = %s, %v; want %s, %v", c.fn, layer, alloc, c.layer, c.alloc)
		}
	}
}

func TestCompare(t *testing.T) {
	write := func(name string, wall, q1, q3 float64, failed int) string {
		rec := record{Workloads: []workloadRecord{{
			Name: "steady_oltp", Ops: 10, FailedOps: failed, SimChecksum: "x",
			Metrics: []metric{{Name: "wall_s", Unit: "s", Value: wall, Q1: q1, Q3: q3, N: 5}},
		}}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 2.0, 1.98, 2.02, 0)
	bound := endToEnd[0].Bound // wall_s
	at := func(change float64) float64 { return 2.0 * (1 + change*bound) }
	for _, c := range []struct {
		name, say string
		b         string
		worse     bool
	}{
		{"same", "unchanged", write("b.json", at(0.2), at(0.1), at(0.3), 0), false},
		{"slower", "REGRESSION", write("b.json", at(1.5), at(1.4), at(1.6), 0), true},
		{"faster", "improved", write("b.json", at(-1.5), at(-1.6), at(-1.4), 0), false},
		{"noisy", "unresolved", write("b.json", at(0.2), at(-0.6), at(0.8), 0), false},
		{"failing", "failed_ops", write("b.json", 2.0, 1.98, 2.02, 1), true},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.say) {
			t.Errorf("%s: worse=%v, want %v and %q in:\n%s", c.name, worse, c.worse, c.say, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([2.5, 3.1, 2.9, 3.4, 2.7], n=4) == [2.6, 2.9, 3.25]
	q1, med, q3 := quartiles([]float64{2.5, 3.1, 2.9, 3.4, 2.7})
	for i, d := range []float64{q1 - 2.6, med - 2.9, q3 - 3.25} {
		if math.Abs(d) > 1e-12 {
			t.Errorf("quartile %d is off by %v", i+1, d)
		}
	}
}
