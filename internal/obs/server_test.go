package obs

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/fleet"
	"varsim/internal/precision"
)

func get(t *testing.T, url string) (string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header
}

// simulate advances the process-wide simulated-cycle counter by running
// a small machine.
func simulate(t *testing.T) {
	t.Helper()
	cfg := config.Default()
	cfg.NumCPUs = 2
	m, err := core.NewCheckpoint(cfg, "oltp", 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(5); err != nil {
		t.Fatal(err)
	}
}

// metricLine matches one Prometheus text-exposition sample line.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]* (?:[-+]?[0-9.eE+-]+|NaN|[-+]Inf)$`)

// TestMetricsExposition: every line is valid text exposition, every
// family is typed, and the simulated-cycle total is the ledger's.
func TestMetricsExposition(t *testing.T) {
	ledger := NewFleet([]string{"alpha"})
	ledger.Start("alpha")
	simulate(t)
	ledger.Finish("alpha", nil)
	cycles := ledger.Status().SimCycles

	ts := httptest.NewServer(NewServer(Options{Fleet: ledger}).Handler())
	defer ts.Close()

	body, hdr := get(t, ts.URL+"/metrics")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	types := map[string]string{}
	var samples []string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
		samples = append(samples, strings.Fields(line)[0])
	}
	for _, name := range samples {
		if types[name] == "" {
			t.Errorf("sample %s has no TYPE line", name)
		}
	}
	for name, want := range map[string]string{
		"varsim_sim_cycles_total":   "counter",
		"varsim_experiments_done":   "gauge",
		"varsim_obs_uptime_seconds": "gauge",
	} {
		if types[name] != want {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], want)
		}
	}
	if want := "varsim_sim_cycles_total " + strconv.FormatFloat(float64(cycles), 'g', -1, 64) + "\n"; cycles <= 0 || !strings.Contains(body, want) {
		t.Errorf("exposition lacks the ledger's total %q:\n%s", want, body)
	}
}

// TestStatusLiveDuringSweep drives a (fake, instant) experiment sweep
// through the tracker and asserts /status reflects the running
// experiment while it runs and the final states after.
func TestStatusLiveDuringSweep(t *testing.T) {
	ledger := NewFleet([]string{"alpha", "beta", "gamma"})
	ts := httptest.NewServer(NewServer(Options{Fleet: ledger}).Handler())
	defer ts.Close()

	status := func() FleetStatus {
		body, hdr := get(t, ts.URL+"/status")
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
		var st FleetStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("/status is not valid JSON: %v\n%s", err, body)
		}
		return st
	}

	if st := status(); st.Total != 3 || st.Done != 0 {
		t.Fatalf("initial status = %+v, want 3 pending", st)
	}

	// Progress is booked around each experiment, as session.Run does.
	run := func(name string, fn func() error) {
		ledger.Start(name)
		ledger.Finish(name, fn())
	}
	var sawRunning atomic.Bool
	run("alpha", func() error {
		st := status()
		for _, e := range st.Experiments {
			if e.Name == "alpha" && e.State == StateRunning {
				sawRunning.Store(true)
			}
		}
		return nil
	})
	run("beta", func() error { return errors.New("boom") })
	run("gamma", func() error { return &fleet.Incomplete{Done: 1, Total: 2, Missing: []int{1}} })
	if !sawRunning.Load() {
		t.Error("/status never showed alpha running mid-experiment")
	}

	st := status()
	if st.Done != 3 || st.Failed != 1 {
		t.Fatalf("final status = %+v, want 3 done / 1 failed", st)
	}
	byName := map[string]ExperimentStatus{}
	for _, e := range st.Experiments {
		byName[e.Name] = e
	}
	if byName["alpha"].State != StateDone {
		t.Errorf("alpha state = %q, want done", byName["alpha"].State)
	}
	if byName["beta"].State != StateFailed || byName["beta"].Error != "boom" {
		t.Errorf("beta = %+v, want failed with error", byName["beta"])
	}
	// A drain is not a failure: the row says drained and keeps the error.
	if g := byName["gamma"]; g.State != StateDrained || g.Error == "" {
		t.Errorf("gamma = %+v, want drained with error", g)
	}
}

func TestETAFromRecentPace(t *testing.T) {
	if got := etaSecs(nil, 0, 10); got != 0 {
		t.Errorf("ETA before any completion = %v, want 0", got)
	}
	if got := etaSecs([]float64{1, 1}, 2, 2); got != 0 {
		t.Errorf("ETA with nothing left = %v, want 0", got)
	}
	// Fewer completions than the window: mean of all of them.
	if got := etaSecs([]float64{2, 4}, 2, 4); got != 6 {
		t.Errorf("ETA from full history = %v, want mean(2,4)*2 = 6", got)
	}
	// More than the window: only the last etaWindow completions count,
	// so early slow experiments stop skewing the estimate.
	fin := []float64{10, 10, 10, 1, 1, 1, 1, 1}
	if got := etaSecs(fin, len(fin), 10); got != 2 {
		t.Errorf("ETA from recent window = %v, want mean(last 5)*2 = 2", got)
	}

	// Through the Fleet: absent before the first completion, absent
	// again when the sweep is done.
	f := NewFleet([]string{"a", "b"})
	if st := f.Status(); st.ETASecs != 0 {
		t.Errorf("fleet ETA with 0 done = %v, want 0", st.ETASecs)
	}
	for _, n := range []string{"a", "b"} {
		f.Start(n)
		f.Finish(n, nil)
	}
	if st := f.Status(); st.ETASecs != 0 {
		t.Errorf("fleet ETA when finished = %v, want 0", st.ETASecs)
	}
}

func TestDashboardAndPprofServed(t *testing.T) {
	ts := httptest.NewServer(NewServer(Options{}).Handler())
	defer ts.Close()
	body, hdr := get(t, ts.URL+"/")
	if !strings.Contains(hdr.Get("Content-Type"), "text/html") || !strings.Contains(body, "varsim live") {
		t.Errorf("dashboard not served: %q", hdr.Get("Content-Type"))
	}
	if body, _ := get(t, ts.URL+"/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Error("pprof index not served")
	}
	for _, path := range []string{"/nope", "/series"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" {
		t.Fatal("no bound address")
	}
	if body, _ := get(t, "http://"+s.Addr()+"/status"); !strings.Contains(body, "total") {
		t.Errorf("status over real listener = %q", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNilSourcesServeEmpty(t *testing.T) {
	ts := httptest.NewServer(NewServer(Options{}).Handler())
	defer ts.Close()
	body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, "varsim_obs_uptime_seconds") {
		t.Error("empty /metrics missing uptime gauge")
	}
	if strings.Contains(body, "varsim_sim_cycles") {
		t.Errorf("/metrics with no ledger serves a simulated-cycle family:\n%s", body)
	}
}

// TestPrecisionEndpointAndMetrics drives the precision observatory's
// HTTP surface: an empty-but-valid report with no tracker wired, an
// insufficient (n<2) row with no CI fields, non-finite observation
// rejection, and the varsim_precision_* gauges once intervals exist.
func TestPrecisionEndpointAndMetrics(t *testing.T) {
	// Nil tracker: still valid JSON with a rows array, and no
	// precision gauges on /metrics.
	ts := httptest.NewServer(NewServer(Options{}).Handler())
	body, hdr := get(t, ts.URL+"/precision")
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var rep precision.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/precision with nil tracker is not valid JSON: %v\n%s", err, body)
	}
	if rep.Rows == nil || len(rep.Rows) != 0 {
		t.Errorf("nil-tracker report rows = %#v, want empty array", rep.Rows)
	}
	if mb, _ := get(t, ts.URL+"/metrics"); strings.Contains(mb, "varsim_precision") {
		t.Error("/metrics exports precision gauges with no tracker")
	}
	ts.Close()

	trk := precision.New(0.04, 0.95)
	ts = httptest.NewServer(NewServer(Options{Precision: trk}).Handler())
	defer ts.Close()

	// One run plus rejected non-finite observations: an insufficient
	// row whose JSON carries counts but no interval fields.
	trk.Observe("table1", "cfgA", 250)
	if err := trk.Observe("table1", "cfgA", math.NaN()); err == nil {
		t.Fatal("tracker accepted NaN")
	}
	if err := trk.Observe("table1", "cfgA", math.Inf(1)); err == nil {
		t.Fatal("tracker accepted +Inf")
	}
	body, _ = get(t, ts.URL+"/precision")
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/precision is not valid JSON: %v\n%s", err, body)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d, want 1\n%s", len(rep.Rows), body)
	}
	if r := rep.Rows[0]; !r.Insufficient || r.N != 1 || r.Rejected != 2 {
		t.Errorf("single-run row = %+v, want insufficient with n=1 rejected=2", r)
	}
	if strings.Contains(body, "NaN") || strings.Contains(body, "Inf") {
		t.Errorf("/precision leaked a non-finite value:\n%s", body)
	}
	mb, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(mb, `varsim_precision_runs{experiment="table1",config="cfgA"} 1`) {
		t.Errorf("/metrics missing run-count gauge:\n%s", mb)
	}
	if strings.Contains(mb, "varsim_precision_rel_half_width_pct{") {
		t.Errorf("/metrics exports a half-width for an insufficient row:\n%s", mb)
	}

	// More runs: the row gains a CI and the labeled gauges appear.
	for _, v := range []float64{251, 249, 250.5, 249.5, 250.2} {
		trk.Observe("table1", "cfgA", v)
	}
	body, _ = get(t, ts.URL+"/precision")
	rep = precision.Report{} // fields omitted by omitempty must not linger
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	r := rep.Rows[0]
	if r.Insufficient || r.N != 6 || r.RelHalfWidthPct <= 0 || len(r.History) != 5 {
		t.Errorf("converging row = %+v", r)
	}
	// A row is keyed by experiment and configuration alone, and the
	// report is the tracker's rows with nothing embedded beside them.
	for _, key := range []string{`"metric"`, `"sampling"`} {
		if strings.Contains(body, key) {
			t.Errorf("/precision carries %s:\n%s", key, body)
		}
	}
	mb, _ = get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"varsim_precision_target_rel_err_pct 4",
		"varsim_precision_tracked 1",
		`varsim_precision_rel_half_width_pct{experiment="table1",config="cfgA"}`,
		`varsim_precision_runs_to_go{experiment="table1",config="cfgA"}`,
	} {
		if !strings.Contains(mb, want) {
			t.Errorf("/metrics missing %q:\n%s", want, mb)
		}
	}
}
