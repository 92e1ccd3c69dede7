package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
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
	runQuick(t, "divergence", "first forks", "divergence attribution", "metric deltas")
}
func TestFig4(t *testing.T)  { runQuick(t, "fig4", "DRAM latency", "inversions") }
func TestFig10(t *testing.T) { runQuick(t, "fig10", "sample size", "95% CI") }
func TestFig11(t *testing.T) { runQuick(t, "fig11", "test statistic", "rejection region") }
func TestTable5(t *testing.T) {
	runQuick(t, "table5", "significance level", "runs needed")
}

func TestTable1(t *testing.T) {
	runQuick(t, "table1", "WCR", "superior config", "1-way", "4-way")
}

func TestTable2SharesCache(t *testing.T) {
	var buf bytes.Buffer
	h := quickH(&buf)
	e, _ := Find("table2")
	if err := h.RunOne(e); err != nil {
		t.Fatal(err)
	}
	if len(h.robSpacesCache) != 3 {
		t.Fatalf("rob spaces not cached: %d", len(h.robSpacesCache))
	}
	// fig10 must reuse them without re-simulating (cheap, same data).
	before := h.robSpacesCache[32].Values[0]
	e10, _ := Find("fig10")
	if err := h.RunOne(e10); err != nil {
		t.Fatal(err)
	}
	if h.robSpacesCache[32].Values[0] != before {
		t.Fatal("cache was invalidated between experiments")
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

func TestSamplingStudy(t *testing.T) {
	runQuick(t, "sampling",
		"adaptive sampling", "Table 3 benchmarks", "associativity matrix",
		"stratified time sampling", "runs saved")
}
