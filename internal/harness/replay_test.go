package harness_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/harness"
	"varsim/internal/machine"
	"varsim/internal/metrics"
	"varsim/internal/report"
	"varsim/internal/trace"
	"varsim/internal/workloads"
)

// replayArtifacts performs one complete pipeline — workload build,
// machine assembly, warmup, a sampled measurement run, and traced
// branches — entirely from fixed (config, seed) inputs, and returns the
// externally visible artifacts: the run result as JSON, the metric
// series as CSV (every value written exactly, 'g' -1), and the branched
// trace event streams.
func replayArtifacts(t *testing.T) (resJSON, seriesCSV []byte, traces [][]trace.Event) {
	t.Helper()
	cfg := config.Default()
	wl, err := workloads.New("oltp", cfg, 11)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	m, err := machine.New(cfg, wl, 7)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, err := m.Run(15); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	res, series := sampleRun(t, m, 99)
	resJSON, err = json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	var csv bytes.Buffer
	if err := series.WriteCSV(&csv); err != nil {
		t.Fatalf("write series: %v", err)
	}
	if series.Len() == 0 {
		t.Fatal("the sampled run recorded no series")
	}

	b, err := core.Branch(m, core.BranchPlan{Label: "replay", N: 2, MeasureTxns: 10, SeedBase: 1234, Workers: 1, Trace: true})
	if err != nil {
		t.Fatalf("Branch: %v", err)
	}
	for _, run := range b.Runs {
		traces = append(traces, run.Events)
	}
	return resJSON, csv.Bytes(), traces
}

// sampleRun measures 15 transactions on a snapshot of checkpoint
// re-seeded with perturbSeed, sampling its counters every 50 us.
func sampleRun(t *testing.T, checkpoint *machine.Machine, perturbSeed uint64) (machine.Result, metrics.TimeSeries) {
	t.Helper()
	m := checkpoint.Snapshot()
	m.SetPerturbSeed(perturbSeed)
	m.EnableSampling(50_000)
	res, err := m.Run(15)
	if err != nil {
		t.Fatalf("sampled run, seed %d: %v", perturbSeed, err)
	}
	return res, m.MetricSeries()
}

// TestByteIdenticalReplay is the determinism contract's regression
// test: two pipelines run from identical (config, seed) inputs must
// produce byte-identical result JSON and series CSV and identical
// trace event streams. This is what the varsimlint analyzers exist to protect —
// a map-order or wall-clock leak anywhere in the core shows up here as
// a diff.
func TestByteIdenticalReplay(t *testing.T) {
	res1, series1, traces1 := replayArtifacts(t)
	res2, series2, traces2 := replayArtifacts(t)

	if !bytes.Equal(res1, res2) {
		t.Errorf("result JSON differs between replays:\n run1: %s\n run2: %s", res1, res2)
	}
	if !bytes.Equal(series1, series2) {
		t.Errorf("metric series CSV differs between replays:\n run1: %s\n run2: %s", series1, series2)
	}
	if len(traces1) != len(traces2) {
		t.Fatalf("trace stream counts differ: %d vs %d", len(traces1), len(traces2))
	}
	for i := range traces1 {
		if len(traces1[i]) == 0 {
			t.Errorf("branch %d produced no trace events", i)
			continue
		}
		if !reflect.DeepEqual(traces1[i], traces2[i]) {
			t.Errorf("trace stream %d differs between replays (%d vs %d events)", i, len(traces1[i]), len(traces2[i]))
		}
	}
}

// workerWidths are the fleet widths the parallel-replay tests compare:
// the sequential path, a fixed small pool, and one worker per host CPU.
func workerWidths() []int {
	widths := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		widths = append(widths, n)
	}
	return widths
}

// TestParallelByteIdenticalBranchSpace pins the fleet scheduler's core
// guarantee on a BranchSpace-based experiment: the table1 harness
// experiment (three L2-associativity spaces, each a fleet of perturbed
// runs) must render byte-identical stdout and byte-identical report
// tables at -j 1, -j 4 and -j NumCPU.
func TestParallelByteIdenticalBranchSpace(t *testing.T) {
	type artifact struct {
		workers int
		stdout  []byte
		tables  []byte
	}
	var arts []artifact
	for _, workers := range workerWidths() {
		e, ok := harness.Find("table1")
		if !ok {
			t.Fatal("table1 experiment not found")
		}
		var out bytes.Buffer
		col := report.NewCollector()
		h := harness.New(harness.Options{
			Out: &out, Seed: 11, Quick: true, Workers: workers, Report: col,
		})
		if err := h.RunOne(e); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var tables bytes.Buffer
		if err := col.WriteJSON(&tables); err != nil {
			t.Fatalf("workers=%d: export tables: %v", workers, err)
		}
		arts = append(arts, artifact{workers, out.Bytes(), tables.Bytes()})
	}
	for _, a := range arts[1:] {
		if !bytes.Equal(arts[0].stdout, a.stdout) {
			t.Errorf("stdout differs between -j %d and -j %d:\n-j %d: %s\n-j %d: %s",
				arts[0].workers, a.workers, arts[0].workers, arts[0].stdout, a.workers, a.stdout)
		}
		if !bytes.Equal(arts[0].tables, a.tables) {
			t.Errorf("report tables differ between -j %d and -j %d:\n-j %d: %s\n-j %d: %s",
				arts[0].workers, a.workers, arts[0].workers, arts[0].tables, a.workers, a.tables)
		}
	}
}

// TestTable4ByteIdenticalAcrossWidths runs quick Table 4 — five run
// lengths branched concurrently from one prepared checkpoint, each a
// fleet of its own — at width 4 and requires the width-1 stdout. Under
// the race detector (make race) it also checks that the concurrent
// branches only read the shared checkpoint.
func TestTable4ByteIdenticalAcrossWidths(t *testing.T) {
	e, ok := harness.Find("table4")
	if !ok {
		t.Fatal("table4 experiment not found")
	}
	var outs [2]bytes.Buffer
	for i, workers := range []int{1, 4} {
		h := harness.New(harness.Options{Out: &outs[i], Seed: 11, Quick: true, Workers: workers})
		if err := h.RunOne(e); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Errorf("stdout differs between -j 1 and -j 4:\n-j 1: %s\n-j 4: %s", outs[0].Bytes(), outs[1].Bytes())
	}
}

// TestParallelByteIdenticalTimeSample pins the same guarantee on the
// TimeSample path: per-checkpoint spaces branched at several fleet
// widths must marshal to byte-identical JSON.
func TestParallelByteIdenticalTimeSample(t *testing.T) {
	sample := func(workers int) []byte {
		cfg := config.Default()
		cfg.NumCPUs = 4
		e := core.Experiment{
			Label: "ts", Config: cfg, Workload: "oltp", WorkloadSeed: 11,
			MeasureTxns: 10, Runs: 4, SeedBase: 42, Workers: workers,
		}
		spaces, err := e.TimeSample([]int64{5, 10, 15})
		if err != nil {
			t.Fatalf("workers=%d: TimeSample: %v", workers, err)
		}
		b, err := json.Marshal(spaces)
		if err != nil {
			t.Fatalf("workers=%d: marshal: %v", workers, err)
		}
		return b
	}
	widths := workerWidths()
	base := sample(widths[0])
	for _, w := range widths[1:] {
		if got := sample(w); !bytes.Equal(base, got) {
			t.Errorf("TimeSample JSON differs between -j %d and -j %d:\n-j %d: %s\n-j %d: %s",
				widths[0], w, widths[0], base, w, got)
		}
	}
}

// TestParallelBranchSpaceMatchesSequential branches one plan from one
// checkpoint over every width, including a width far beyond the run
// count, and requires identical JSON.
func TestParallelBranchSpaceMatchesSequential(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 4
	wl, err := workloads.New("oltp", cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(cfg, wl, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(15); err != nil {
		t.Fatal(err)
	}
	var base []byte
	for _, workers := range []int{1, 2, 4, 32, -1} {
		runs, err := core.Branch(m, core.BranchPlan{Label: "par", N: 6, MeasureTxns: 10, SeedBase: 99, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(runs.Space())
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = b
			continue
		}
		if !bytes.Equal(base, b) {
			t.Errorf("space JSON at workers=%d differs from sequential:\nseq: %s\ngot: %s", workers, base, b)
		}
	}
}

// TestDistinctSeedsDiverge guards the other half of the contract: the
// perturbation seed must actually matter, otherwise the replay test
// above would pass vacuously on a simulator that ignores its seeds.
func TestDistinctSeedsDiverge(t *testing.T) {
	cfg := config.Default()
	wl, err := workloads.New("oltp", cfg, 11)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	m, err := machine.New(cfg, wl, 7)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, err := m.Run(15); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	a, _ := sampleRun(t, m, 99)
	b, _ := sampleRun(t, m, 100)
	if reflect.DeepEqual(a, b) {
		t.Error("runs with different perturbation seeds produced identical results")
	}
}
