// Package cmd_test builds cmd/varsim and cmd/experiments once and
// drives them as a user would: what reaches stdout, what a journal
// resumes to, what -http serves, and how the process exits.
package cmd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	binDir      string
	sourcesOnce sync.Once
)

// bin returns the path of a built tool. go test keys its result cache
// on the files the test process itself reads once m.Run has started,
// and the tools were built by a child process; so the first call lists
// the tools' source directories, or a change to a tool would be
// answered from the cache.
func bin(tool string) string {
	sourcesOnce.Do(func() {
		for _, src := range []string{".", "../internal"} {
			filepath.WalkDir(src, func(string, fs.DirEntry, error) error { return nil })
		}
		os.ReadDir("..") // the root's own entries (go.mod; no package lives there), not the trees beside them
	})
	return filepath.Join(binDir, tool)
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "varsim-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	for _, tool := range []string{"varsim", "experiments"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "varsim/cmd/"+tool).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", tool, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// drive runs a built tool in a fresh directory and returns its stdout,
// stderr and exit status.
func drive(t *testing.T, dir, tool string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(bin(tool), args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v", tool, args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

func TestExperimentsStdoutIsResultsOnly(t *testing.T) {
	dir := t.TempDir()
	base, stderr, exit := drive(t, dir, "experiments", "-quick", "-heartbeat", "0", "-j", "1", "table1")
	if exit != 0 {
		t.Fatalf("exit %d\n%s", exit, stderr)
	}
	if !strings.Contains(base, "=== table1") {
		t.Fatalf("stdout has no table1 banner:\n%s", base)
	}
	if strings.Contains(base, "finished in") {
		t.Errorf("timing line on stdout:\n%s", base)
	}
	if !strings.Contains(stderr, "[table1 finished in ") {
		t.Errorf("no timing line on stderr: %q", stderr)
	}
	for _, j := range []string{"1", "2"} {
		if again, _, _ := drive(t, dir, "experiments", "-quick", "-heartbeat", "0", "-j", j, "table1"); again != base {
			t.Errorf("stdout at -j %s differs from the first -j 1 run", j)
		}
	}
}

func TestVarsimResumePrintsTheSameBytes(t *testing.T) {
	dir := t.TempDir()
	run, stderr, exit := drive(t, dir, "varsim", "-workload", "oltp", "-cpus", "4", "-runs", "6",
		"-txns", "40", "-warmup", "60", "-digest-us", "20", "-journal", "d")
	if exit != 0 {
		t.Fatalf("exit %d\n%s", exit, stderr)
	}
	resumed, stderr, exit := drive(t, dir, "varsim", "-resume", "d")
	if exit != 0 {
		t.Fatalf("resume exit %d\n%s", exit, stderr)
	}
	if resumed != run || run == "" {
		t.Errorf("-resume printed\n%s\nwant\n%s", resumed, run)
	}
}

// TestVarsimDigestDiffsTheFirstPair: -digest-us over a space prints the
// run 0 vs run 1 diff, and 'varsim diff' over the journal the same
// space wrote names the same fork. 'varsim diff' has no live mode.
func TestVarsimDigestDiffsTheFirstPair(t *testing.T) {
	dir := t.TempDir()
	out, stderr, exit := drive(t, dir, "varsim", "-workload", "oltp", "-cpus", "4", "-runs", "3",
		"-txns", "40", "-warmup", "60", "-digest-us", "20", "-journal", "d")
	if exit != 0 {
		t.Fatalf("exit %d\n%s", exit, stderr)
	}
	for _, want := range []string{"run 0 and run 1", "forked components: ", "metric deltas"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "divergence attribution") {
		t.Errorf("stdout still prints the space attribution:\n%s", out)
	}
	journaled, stderr, exit := drive(t, dir, "varsim", "diff", "-A", "d")
	if exit != 0 {
		t.Fatalf("diff -A exit %d\n%s", exit, stderr)
	}
	if live := out[strings.Index(out, "run 0 and run 1"):]; strings.ReplaceAll(journaled, "d run ", "run ") != live {
		t.Errorf("diff -A printed\n%s\nwant the live pair block\n%s", journaled, live)
	}
	if _, stderr, exit := drive(t, dir, "varsim", "diff", "-workload", "oltp"); exit == 0 {
		t.Errorf("diff with live-mode flags exited 0\n%s", stderr)
	}
	if _, stderr, exit := drive(t, dir, "varsim", "diff"); exit == 0 || !strings.Contains(stderr, "-digest-us N -journal DIR") {
		t.Errorf("diff without -A: exit %d, stderr %q; want non-zero naming -digest-us N -journal DIR", exit, stderr)
	}
}

// TestVarsimResumeTracesTheSpec: -lock-report on a resumed journal
// simulates the journaled experiment, not the flags' defaults.
func TestVarsimResumeTracesTheSpec(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, exit := drive(t, dir, "varsim", "-workload", "specjbb", "-cpus", "4", "-runs", "2",
		"-txns", "10", "-warmup", "10", "-journal", "d"); exit != 0 {
		t.Fatalf("exit %d\n%s", exit, stderr)
	}
	out, stderr, exit := drive(t, dir, "varsim", "-resume", "d", "-lock-report")
	if exit != 0 {
		t.Fatalf("resume exit %d\n%s", exit, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "specjbb ") || !strings.Contains(last, " 20 txns") {
		t.Errorf("-resume -lock-report ended with %q, want the journaled specjbb experiment's 20 txns\n%s", last, out)
	}
}

// TestExperimentsResumeReplaysEveryRun: a journaled run of experiments
// that share spaces (fig10 Table 2's, anova fig9's), resumed with the
// same list, prints the same bytes and appends no run record — the
// session's resume cache is the harness's run store. Without -resume the
// in-process reuse is not a journal replay, so the heartbeat (the
// /status model) never reports one.
func TestExperimentsResumeReplaysEveryRun(t *testing.T) {
	dir := t.TempDir()
	list := []string{"table1", "table2", "fig10", "fig9", "anova"}
	runRecords := func() int {
		raw, err := os.ReadFile(filepath.Join(dir, "d", "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(raw, []byte(`"status":"ok"`))
	}
	run, stderr, exit := drive(t, dir, "experiments", append([]string{"-quick", "-heartbeat", "20ms", "-journal", "d"}, list...)...)
	if exit != 0 {
		t.Fatalf("exit %d\n%s", exit, stderr)
	}
	if strings.Contains(stderr, " replayed") {
		t.Errorf("a run without -resume reported journal replays:\n%s", stderr)
	}
	journaled := runRecords()
	resumed, stderr, exit := drive(t, dir, "experiments", append([]string{"-quick", "-heartbeat", "0", "-resume", "d"}, list...)...)
	if exit != 0 {
		t.Fatalf("resume exit %d\n%s", exit, stderr)
	}
	if resumed != run || run == "" {
		t.Errorf("-resume printed\n%s\nwant\n%s", resumed, run)
	}
	if n := runRecords(); n != journaled {
		t.Errorf("the resume appended %d run records to a journal that held every run", n-journaled)
	}
}

func TestVarsimStatusListsTheExperiment(t *testing.T) {
	// Long enough to be caught mid-run; killed once the endpoints answer.
	cmd := exec.Command(bin("varsim"), "-workload", "oltp", "-cpus", "4",
		"-txns", "1000000", "-warmup", "100", "-http", "127.0.0.1:0")
	cmd.Dir = t.TempDir()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	const marker = "observability server on "
	url := ""
	for sc := bufio.NewScanner(stderr); sc.Scan(); {
		if i := strings.Index(sc.Text(), marker); i >= 0 {
			url = sc.Text()[i+len(marker):]
			break
		}
	}
	if url == "" {
		t.Fatal("varsim -http never announced its address")
	}
	resp, err := http.Get(url + "status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The server renders the ledger and the precision tracker only: one
	// simulated-cycle total, no machine instrument, no sampled series —
	// also once the warm-up has simulated, which is when a machine's
	// registry would be there to serve.
	exposition := func() string {
		resp, err := http.Get(url + "metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		body := exposition()
		if strings.Contains(body, "\nvarsim_sim_cycles_total ") && !strings.Contains(body, "\nvarsim_sim_cycles_total 0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the warm-up never booked its cycles:\n%s", body)
		}
	}
	// What is checked is an absence, which no event announces: give a
	// registry published right after the warm-up the time to show.
	time.Sleep(50 * time.Millisecond)
	if body := exposition(); strings.Count(body, "\nvarsim_sim_cycles_total ") != 1 || strings.Contains(body, "varsim_machine_") {
		t.Errorf("/metrics, want one varsim_sim_cycles_total sample and no varsim_machine_ family:\n%s", body)
	}
	series, err := http.Get(url + "series")
	if err != nil {
		t.Fatal(err)
	}
	series.Body.Close()
	if series.StatusCode != http.StatusNotFound {
		t.Errorf("/series answered %d, want 404", series.StatusCode)
	}
	var status struct {
		Total       int `json:"total"`
		Experiments []struct {
			Name string `json:"name"`
		} `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Total != 1 || len(status.Experiments) != 1 || status.Experiments[0].Name != "oltp/simple" {
		t.Errorf("/status = %+v, want the one experiment oltp/simple", status)
	}
}

// TestVarsimHTTPResumeWarmsNothing: -http serves the run; it does not
// change what the run simulates. A resume whose journal holds every run
// replays them all, so its ledger row, the manifest's, books no cycles.
func TestVarsimHTTPResumeWarmsNothing(t *testing.T) {
	dir := t.TempDir()
	run, stderr, exit := drive(t, dir, "varsim", "-workload", "oltp", "-cpus", "4", "-txns", "40",
		"-warmup", "200", "-runs", "3", "-journal", "d")
	if exit != 0 {
		t.Fatalf("exit %d\n%s", exit, stderr)
	}
	resumed, stderr, exit := drive(t, dir, "varsim", "-resume", "d", "-http", "127.0.0.1:0", "-manifest", "m.json")
	if exit != 0 {
		t.Fatalf("resume exit %d\n%s", exit, stderr)
	}
	if resumed != run || run == "" {
		t.Errorf("-resume -http printed\n%s\nwant\n%s", resumed, run)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Experiments []map[string]any `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Experiments) != 1 || m.Experiments[0]["name"] != "oltp/simple" {
		t.Fatalf("manifest rows = %v, want the one experiment oltp/simple", m.Experiments)
	}
	if c, ok := m.Experiments[0]["sim_cycles"]; ok {
		t.Errorf("the resumed row simulated %v cycles; a complete journal needs no checkpoint", c)
	}
}

// TestExperimentsManifestIsTheLedger: the manifest's one row is the
// progress ledger's, and a one-experiment run's total is that row's.
func TestExperimentsManifestIsTheLedger(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, exit := drive(t, dir, "experiments", "-quick", "-heartbeat", "0", "-manifest", "m.json", "perturb"); exit != 0 {
		t.Fatalf("exit %d\n%s", exit, stderr)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		SimCycles   int64 `json:"sim_cycles"`
		Experiments []struct {
			Name      string `json:"name"`
			State     string `json:"state"`
			SimCycles int64  `json:"sim_cycles"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Experiments) != 1 {
		t.Fatalf("manifest rows = %+v, want one\n%s", m.Experiments, raw)
	}
	if e := m.Experiments[0]; e.Name != "perturb" || e.State != "done" || e.SimCycles <= 0 || e.SimCycles != m.SimCycles {
		t.Errorf("manifest row %+v with total %d, want perturb done with sim_cycles > 0 equal to the total", e, m.SimCycles)
	}
}

// TestVarsimPrecisionReadsEveryRun: varsim precision counts every run
// a journal settled — a fixed-N journal's Runs, an adaptive one's runs
// executed past -runs — and only a fixed-N journal short of its Runs
// says how many have not settled.
func TestVarsimPrecisionReadsEveryRun(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-workload", "oltp", "-cpus", "4", "-txns", "40", "-warmup", "60"}
	for _, c := range []struct {
		name string
		args []string
		keep int // journal lines kept before precision reads it; 0 = all
		n    string
		hint string
	}{
		{"fixed", []string{"-runs", "6"}, 0, "6", ""},
		{"fixed-partial", []string{"-runs", "6"}, 4, "4", "(2/6 runs not settled yet"},
		{"adaptive", []string{"-adaptive", "-runs", "4", "-budget", "12", "-rel-err", "0.001"}, 0, "12", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			jd := filepath.Join(dir, c.name)
			run, stderr, exit := drive(t, dir, "varsim", append(append(common, c.args...), "-journal", jd)...)
			if exit != 0 {
				t.Fatalf("exit %d\n%s", exit, stderr)
			}
			if c.keep == 0 && !strings.Contains(run, "space of "+c.n+" runs") {
				t.Fatalf("fixture drifted: the run did not execute %s runs\n%s", c.n, run)
			}
			if c.keep > 0 {
				jf := filepath.Join(jd, "journal.jsonl")
				b, err := os.ReadFile(jf)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.SplitAfter(string(b), "\n")
				if err := os.WriteFile(jf, []byte(strings.Join(lines[:c.keep], "")), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			out, stderr, exit := drive(t, dir, "varsim", "precision", "-journal", jd)
			if exit != 0 {
				t.Fatalf("precision exit %d\n%s", exit, stderr)
			}
			var n []string
			for _, line := range strings.Split(out, "\n") {
				if f := strings.Fields(line); len(f) > 2 && f[0] == "oltp/simple" {
					n = append(n, f[2])
				}
			}
			if len(n) != 1 || n[0] != c.n {
				t.Errorf("precision rows report n %v, want [%s]\n%s", n, c.n, out)
			}
			if got := strings.Contains(out, "not settled yet"); got != (c.hint != "") || !strings.Contains(out, c.hint) {
				t.Errorf("precision output, want hint %q:\n%s", c.hint, out)
			}
		})
	}
}

// TestVarsimSeriesColumns drives the interval-sampled run: stdout
// carries the four sparklines, and the CSV's columns are the machine's
// counters, sorted under their series names.
func TestVarsimSeriesColumns(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, exit := drive(t, dir, "varsim", "-workload", "oltp", "-cpus", "4", "-txns", "40", "-warmup", "60", "-interval-us", "20", "-series-csv", "s.csv")
	if exit != 0 {
		t.Fatalf("exit %d\n%s", exit, stderr)
	}
	for _, label := range []string{"ipc ", "l2_miss_rate ", "bus_req_per_us ", "lock_contention "} {
		if !strings.Contains(stdout, "\n"+label) {
			t.Errorf("no %q sparkline on stdout:\n%s", label, stdout)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "s.csv"))
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(b), "\n")
	const want = "time_ns,bus.requests,machine.events,machine.instrs,machine.txns," +
		"mem.l1d.misses,mem.l1i.misses,mem.l2.accesses,mem.l2.misses," +
		"os.ctx_switches,os.lock_acquisitions,os.lock_contentions,os.preempts,os.steals," +
		"snoop.cache_to_cache,snoop.mem_fetches,snoop.writebacks"
	if header != want {
		t.Errorf("series CSV header\n got %s\nwant %s", header, want)
	}
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	// An adaptive journal, whose spec a -resume below combines with a
	// flag -adaptive refuses.
	if _, stderr, exit := drive(t, dir, "varsim", "-adaptive", "-runs", "4", "-txns", "10", "-warmup", "10", "-cpus", "4", "-budget", "4", "-journal", "ja"); exit != 0 {
		t.Fatalf("adaptive journal: exit %d\n%s", exit, stderr)
	}
	const adaptiveRefusal = "-adaptive does not combine"
	for _, c := range []struct {
		tool string
		args []string
		want int
		say  string // in stderr, when set
	}{
		{"experiments", []string{"-quick", "nosuch"}, 2, ""},
		{"varsim", []string{"-proc", "nosuch"}, 2, ""},
		{"varsim", []string{"-from-recipe", "r.json", "-journal", "d"}, 2, ""},
		{"varsim", []string{"-from-recipe", "r.json", "-resume", "d"}, 2, ""},
		{"varsim", []string{"-series-csv", "s.csv"}, 2, "-interval-us"},
		{"varsim", []string{"-series-jsonl", "s.jsonl"}, 2, "flag provided but not defined"},
		{"varsim", []string{"-retries", "1"}, 2, "flag provided but not defined"},
		{"varsim", []string{"-job-timeout", "1s"}, 2, "flag provided but not defined"},
		{"experiments", []string{"-quick", "-retries", "1", "table1"}, 2, "flag provided but not defined"},
		{"varsim", []string{"-adaptive", "-interval-us", "50", "-txns", "20", "-warmup", "20", "-cpus", "4", "-journal", "jd"}, 2, adaptiveRefusal},
		{"varsim", []string{"-adaptive", "-digest-us", "20", "-txns", "20", "-warmup", "20", "-cpus", "4"}, 2, adaptiveRefusal},
		{"varsim", []string{"-adaptive", "-perfetto", "t.json", "-txns", "20", "-warmup", "20", "-cpus", "4"}, 2, adaptiveRefusal},
		{"varsim", []string{"-resume", "ja", "-interval-us", "50"}, 2, adaptiveRefusal},
		{"varsim", []string{"-cpus", "4", "-txns", "20", "-warmup", "20", "-manifest", "missing/m.json"}, 1, ""},
		{"experiments", []string{"-quick", "-heartbeat", "0", "-manifest", "missing/m.json", "table1"}, 1, ""},
	} {
		if _, stderr, exit := drive(t, dir, c.tool, c.args...); exit != c.want || !strings.Contains(stderr, c.say) {
			t.Errorf("%s %v: exit %d, want %d with %q on stderr\n%s", c.tool, c.args, exit, c.want, c.say, stderr)
		}
	}
	// A refused -adaptive opened no session: no spec for a run that
	// never started.
	if _, err := os.Stat(filepath.Join(dir, "jd", "spec.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("refused -adaptive -journal jd left jd/spec.json (stat: %v)", err)
	}
}
