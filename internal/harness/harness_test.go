package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"varsim/internal/core"
	"varsim/internal/journal"
	"varsim/internal/machine"
)

var update = flag.Bool("update", false, "rewrite the .golden files under testdata")

func quickH(buf *bytes.Buffer) *H {
	return New(Options{Out: buf, Seed: 0xA1A3, Quick: true})
}

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 19 {
		t.Fatalf("expected 19 experiments, got %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %s", e.Name)
		}
		seen[e.Name] = true
		if _, ok := Find(e.Name); !ok {
			t.Fatalf("Find(%s) failed", e.Name)
		}
	}
	if _, ok := Find("bogus"); ok {
		t.Fatal("Find accepted a bogus name")
	}
}

func TestNewRequiresOut(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Options{})
}

// The per-experiment smoke tests run each quick experiment end to end
// and check that the expected table headers appear. Together they
// exercise the entire reproduction pipeline. runQuick returns the
// output for the experiments that also hold it to a golden file.

func runQuick(t *testing.T, name string, wantSubstrings ...string) string {
	t.Helper()
	var buf bytes.Buffer
	h := quickH(&buf)
	e, ok := Find(name)
	if !ok {
		t.Fatalf("experiment %s not found", name)
	}
	if err := h.RunOne(e); err != nil {
		t.Fatalf("%s failed: %v\noutput so far:\n%s", name, err, buf.String())
	}
	out := buf.String()
	for _, want := range wantSubstrings {
		if !strings.Contains(out, want) {
			t.Errorf("%s output missing %q:\n%s", name, want, out)
		}
	}
	return out
}

// golden holds an experiment's whole quick-mode output to
// testdata/<name>.quick.golden. The files were recorded while Figures
// 1, 2, 3 and 8 still read the machine's schedTrace / txnTimes
// recorders, and the trace-buffer readers that replaced them must
// reproduce them unedited. Zipf popularity goes through math.Pow, whose
// last bit may differ between architectures, so each file names the
// GOARCH that wrote it and the test skips elsewhere.
func golden(t *testing.T, name, out string) {
	t.Helper()
	path := filepath.Join("testdata", name+".quick.golden")
	got := []byte("# GOARCH " + runtime.GOARCH + "\n" + out)
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	header, _, _ := bytes.Cut(want, []byte("\n"))
	if arch := strings.TrimPrefix(string(header), "# GOARCH "); arch != runtime.GOARCH {
		t.Skipf("%s was recorded on GOARCH %s; this is %s", path, arch, runtime.GOARCH)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s quick output drifted from %s\n got:\n%s\nwant:\n%s", name, path, got, want)
	}
}

func TestFig1(t *testing.T) { golden(t, "fig1", runQuick(t, "fig1", "scheduling events", "diverg")) }
func TestDivergenceStudy(t *testing.T) {
	out := runQuick(t, "divergence", "run 0 and run 1", "forked components", "metric deltas")
	if strings.Contains(out, "first forks") {
		t.Errorf("divergence prints a first-fork table:\n%s", out)
	}
}
func TestFig4(t *testing.T)  { runQuick(t, "fig4", "DRAM latency", "inversions") }
func TestFig10(t *testing.T) { runQuick(t, "fig10", "sample size", "95% CI") }
func TestFig11(t *testing.T) { runQuick(t, "fig11", "test statistic", "rejection region") }
func TestTable5(t *testing.T) {
	runQuick(t, "table5", "significance level", "runs needed")
}

// TestTable5CurveStartsAtTable2WCR: Table 5's curve at one run per
// configuration is the single-run WCR Table 2 prints for the same pair.
func TestTable5CurveStartsAtTable2WCR(t *testing.T) {
	var buf bytes.Buffer
	h := quickH(&buf)
	for _, name := range []string{"table2", "table5"} {
		e, _ := Find(name)
		if err := h.RunOne(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	var table2, table5 string
	inCurve := false
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "32-entry vs (64-entry)"):
			table2 = f[3]
		case strings.HasPrefix(line, "runs per configuration"):
			inCurve = true
		case inCurve && len(f) == 2 && f[0] == "1":
			var wcr float64
			if _, err := fmt.Sscanf(f[1], "%f%%", &wcr); err != nil {
				t.Fatalf("curve row %q: %v", line, err)
			}
			table5 = fmt.Sprintf("%.0f%%", wcr)
		}
	}
	if table2 == "" || table5 == "" || table2 != table5 {
		t.Errorf("Table 2 prints WCR %q for 32 vs 64, Table 5's curve starts at %q:\n%s", table2, table5, buf.String())
	}
}

func TestTable1(t *testing.T) {
	runQuick(t, "table1", "WCR", "superior config", "1-way", "4-way")
}

// TestStoreSimulatesEachRunOnce holds one harness to its run store over
// the experiments that share runs: no run is journaled twice, sampling
// re-runs nothing of Table 1 or Table 3, the experiments that only read
// spaces another already ran simulate nothing, the precision observer
// sees every run once, and none of that reuse counts as a journal
// replay.
func TestStoreSimulatesEachRunOnce(t *testing.T) {
	jw, err := journal.CreateDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	var mu sync.Mutex
	observed := map[journal.Key]int{}
	var buf bytes.Buffer
	h := New(Options{Out: &buf, Seed: 0xA1A3, Quick: true, Resilience: core.Resilience{
		Journal: jw,
		Observe: func(k journal.Key, _ machine.Result) {
			mu.Lock()
			observed[k]++
			mu.Unlock()
		},
	}})
	hits := journal.ReadStats().Hits
	appended := map[string][]journal.Record{}
	seen := 0
	for _, name := range []string{"table1", "table3", "sampling", "table2", "fig10", "fig11", "table5", "fig9", "anova"} {
		e, _ := Find(name)
		before := machine.SimulatedCycles()
		if err := h.RunOne(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cycles := machine.SimulatedCycles() - before
		switch name {
		case "fig10", "fig11", "table5", "anova":
			if cycles != 0 {
				t.Errorf("%s simulated %d cycles; its spaces were already run", name, cycles)
			}
		}
		res, err := journal.Load(jw.Path())
		if err != nil {
			t.Fatal(err)
		}
		appended[name], seen = res.Records[seen:], len(res.Records)
	}

	runs := map[journal.Key]bool{}
	for _, recs := range appended {
		for _, r := range recs {
			if r.Status != journal.StatusOK {
				continue
			}
			if runs[r.Key] {
				t.Errorf("%s was journaled twice", r.Key)
			}
			runs[r.Key] = true
		}
	}
	tableLabels := map[string]bool{}
	for _, b := range table3Benches {
		tableLabels[b.name] = true
	}
	for _, assoc := range assocWays {
		tableLabels[fmt.Sprintf("%d-way", assoc)] = true
	}
	for _, r := range appended["sampling"] {
		if r.Status == journal.StatusOK && tableLabels[r.Experiment] {
			t.Errorf("sampling re-ran %s instead of replaying it", r.Key)
		}
	}
	if len(observed) != len(runs) {
		t.Errorf("observer saw %d keys, the journal holds %d runs", len(observed), len(runs))
	}
	for k, n := range observed {
		if n != 1 {
			t.Errorf("%s observed %d times, want once", k, n)
		}
	}
	if d := journal.ReadStats().Hits - hits; d != 0 {
		t.Errorf("in-process reuse counted %d journal replays, want 0", d)
	}
}

func TestTable4Trend(t *testing.T) {
	runQuick(t, "table4", "coeff of variation", "range of variability")
}

func TestFig2And3(t *testing.T) {
	golden(t, "fig2", runQuick(t, "fig2", "interval", "CoV"))
	golden(t, "fig3", runQuick(t, "fig3", "interval#", "sigma"))
}

func TestFig8(t *testing.T) {
	golden(t, "fig8", runQuick(t, "fig8", "txn window", "window means vary"))
}

func TestFig9AndANOVA(t *testing.T) {
	var buf bytes.Buffer
	h := quickH(&buf)
	e9, _ := Find("fig9")
	if err := h.RunOne(e9); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "between-checkpoint spread") {
		t.Fatalf("fig9 output wrong:\n%s", buf.String())
	}
	buf.Reset()
	ea, _ := Find("anova")
	if err := h.RunOne(ea); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "oltp") || !strings.Contains(out, "specjbb") || !strings.Contains(out, "F(") {
		t.Fatalf("anova output wrong:\n%s", out)
	}
}

func TestPerturbExperiment(t *testing.T) {
	runQuick(t, "perturb", "0-1 ns", "0-4 ns")
}

func TestTable3(t *testing.T) {
	runQuick(t, "table3", "barnes", "slashcode", "coeff of variation")
}

func TestIntervalCPT(t *testing.T) {
	// 3 txns in [0,10), 1 in [10,20), 0 in [20,30).
	times := []int64{1, 5, 9, 12}
	got := intervalCPT(times, 0, 30, 10)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if got[0] != 10.0/3 || got[1] != 10.0 {
		t.Fatalf("got %v", got)
	}
	if intervalCPT(times, 0, 30, 0) != nil {
		t.Fatal("zero interval should give nil")
	}
	if intervalCPT(nil, 0, 30, 10) != nil {
		t.Fatal("no txns should give nil")
	}
}

func TestAblations(t *testing.T) {
	runQuick(t, "ablations",
		"perturbation site", "MESI", "snoop occupancy",
		"systematic", "random", "Jarque-Bera", "bootstrap")
}

func TestCharacterize(t *testing.T) {
	runQuick(t, "characterize", "workload", "instr/txn", "slashcode", "barnes")
}

// TestSamplingStudy runs the three studies; each pair verdict is
// printed over the samples that settled it, so 1-way, decided at the
// pilot, is compared with 4-way's pilot runs, not its final sample.
func TestSamplingStudy(t *testing.T) {
	runQuick(t, "sampling",
		"adaptive sampling", "Table 3 benchmarks", "associativity matrix",
		"stratified time sampling", "runs saved", "4-way outperforms 2-way",
		"[1-way 4 runs, 4-way 4 runs]")
}
