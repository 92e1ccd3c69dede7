package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/obs"
	"varsim/internal/sampling"
)

// An empty collector must still export valid documents: a JSON empty
// array and zero CSV files, so a run where every experiment failed
// before printing leaves parseable artifacts.
func TestExportEmptyCollector(t *testing.T) {
	c := NewCollector()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tables []Table
	if err := json.Unmarshal(buf.Bytes(), &tables); err != nil {
		t.Fatal(err)
	}
	if tables == nil || len(tables) != 0 {
		t.Fatalf("empty collector JSON = %q, want []", buf.String())
	}
	dir := t.TempDir()
	files, err := c.WriteCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("empty collector wrote %v", files)
	}
}

// A header-only table (zero rows) round-trips as just its header.
func TestExportHeaderOnlyTable(t *testing.T) {
	c := NewCollector()
	c.Add("empty", "col1\tcol2", nil)
	dir := t.TempDir()
	files, err := c.WriteCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("wrote %v", files)
	}
	recs := readCSV(t, files[0])
	if len(recs) != 1 || recs[0][0] != "col1" || recs[0][1] != "col2" {
		t.Fatalf("header-only CSV = %v", recs)
	}

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tables []Table
	if err := json.Unmarshal(buf.Bytes(), &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 0 {
		t.Fatalf("header-only JSON = %+v", tables)
	}
}

// Cells containing commas, quotes, tabs and newlines must survive both
// export formats byte-for-byte.
func TestRoundTripSpecialCells(t *testing.T) {
	tricky := [][]string{
		{"a,b", `quote " inside`, "tab\tinside"},
		{"newline\ninside", "plain", "trailing space "},
	}
	c := NewCollector()
	c.Add("special", "x\ty\tz", tricky)

	dir := t.TempDir()
	files, err := c.WriteCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := readCSV(t, files[0])
	if len(recs) != 3 {
		t.Fatalf("got %d CSV records", len(recs))
	}
	for i, row := range tricky {
		for j, want := range row {
			if recs[i+1][j] != want {
				t.Errorf("CSV cell [%d][%d] = %q, want %q", i, j, recs[i+1][j], want)
			}
		}
	}

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tables []Table
	if err := json.Unmarshal(buf.Bytes(), &tables); err != nil {
		t.Fatal(err)
	}
	for i, row := range tricky {
		for j, want := range row {
			if tables[0].Rows[i][j] != want {
				t.Errorf("JSON cell [%d][%d] = %q, want %q", i, j, tables[0].Rows[i][j], want)
			}
		}
	}
}

// A multi-experiment, multi-table run exports every table with stable
// per-experiment numbering and preserved order.
func TestMultiTableRun(t *testing.T) {
	c := NewCollector()
	c.Add("table1", "a\tb", [][]string{{"1", "2"}})
	c.Add("fig9", "x", [][]string{{"9"}})
	c.Add("table1", "c\td", [][]string{{"3", "4"}})

	dir := t.TempDir()
	files, err := c.WriteCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, filepath.Base(f))
	}
	want := []string{"table1_1.csv", "fig9_1.csv", "table1_2.csv"}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("files = %v, want %v", names, want)
		}
	}
	if recs := readCSV(t, files[2]); recs[1][1] != "4" {
		t.Fatalf("second table1 CSV content wrong: %v", recs)
	}

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tables []Table
	if err := json.Unmarshal(buf.Bytes(), &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 || tables[1].Experiment != "fig9" || tables[2].Rows[0][0] != "3" {
		t.Fatalf("JSON order/content wrong: %+v", tables)
	}
}

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestManifest exercises the provenance manifest end to end: stamping,
// per-experiment entries, throughput math, and the JSON round trip.
func TestManifest(t *testing.T) {
	cycles := int64(1000)
	m := NewManifest("testtool", 42, func() int64 { return cycles })
	m.Args = []string{"-quick"}
	m.ConfigHash = ConfigHash(map[string]int{"cpus": 16})
	m.AddExperiment("good", 2*time.Second, 4_000_000, "")
	m.AddExperiment("bad", time.Second, 0, "boom")
	cycles = 5_001_000 // 5M simulated cycles advanced since NewManifest
	m.Finish()

	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Tool != "testtool" || got.Seed != 42 {
		t.Fatalf("identity wrong: %+v", got)
	}
	if got.GoVersion == "" || got.GOOS == "" || got.StartTime == "" || got.EndTime == "" {
		t.Fatalf("toolchain/time stamps missing: %+v", got)
	}
	if _, err := time.Parse(time.RFC3339, got.StartTime); err != nil {
		t.Fatalf("start time not RFC3339: %v", err)
	}
	if got.SimCycles != 5_000_000 {
		t.Fatalf("SimCycles = %d, want 5000000", got.SimCycles)
	}
	if len(got.Experiments) != 2 {
		t.Fatalf("experiments = %+v", got.Experiments)
	}
	if e := got.Experiments[0]; e.SimCyclesPerSec != 2_000_000 {
		t.Fatalf("throughput = %v, want 2e6", e.SimCyclesPerSec)
	}
	if e := got.Experiments[1]; e.Error != "boom" || e.SimCyclesPerSec != 0 {
		t.Fatalf("failed experiment recorded wrong: %+v", e)
	}
}

// TestVCSFromSettings covers the git-provenance extraction over the
// shapes ReadBuildInfo actually produces: a stamped repo build, a dirty
// tree, and a build with no VCS info at all (test binaries).
func TestVCSFromSettings(t *testing.T) {
	commit, dirty := vcsFromSettings([]debug.BuildSetting{
		{Key: "-buildmode", Value: "exe"},
		{Key: "vcs.revision", Value: "55fa079deadbeef"},
		{Key: "vcs.modified", Value: "false"},
	})
	if commit != "55fa079deadbeef" || dirty {
		t.Fatalf("clean build = (%q, %v), want revision and dirty=false", commit, dirty)
	}
	if _, dirty := vcsFromSettings([]debug.BuildSetting{
		{Key: "vcs.revision", Value: "abc"},
		{Key: "vcs.modified", Value: "true"},
	}); !dirty {
		t.Fatal("vcs.modified=true not reported as dirty")
	}
	if commit, dirty := vcsFromSettings(nil); commit != "" || dirty {
		t.Fatalf("no-VCS build = (%q, %v), want zero values", commit, dirty)
	}
}

// TestManifestGitFieldsRoundTrip checks the provenance fields survive
// the JSON round trip (and stay omitted when the build has no VCS
// stamp, as in test binaries).
func TestManifestGitFieldsRoundTrip(t *testing.T) {
	m := NewManifest("t", 1, nil)
	m.GitCommit, m.GitDirty = "0123abcd", true
	m.Finish()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.GitCommit != "0123abcd" || !got.GitDirty {
		t.Fatalf("git provenance lost: %+v", got)
	}
}

func TestManifestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	m := NewManifest("t", 1, nil)
	m.Finish()
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Fatalf("manifest file is not valid JSON: %s", b)
	}
}

func TestConfigHash(t *testing.T) {
	a := ConfigHash(map[string]int{"x": 1})
	b := ConfigHash(map[string]int{"x": 1})
	c := ConfigHash(map[string]int{"x": 2})
	if a != b {
		t.Fatalf("hash not stable: %s vs %s", a, b)
	}
	if a == c {
		t.Fatal("different configs hashed equal")
	}
	if len(a) != 16 {
		t.Fatalf("hash %q not 16 hex chars", a)
	}
	if ConfigHash(func() {}) != "unhashable" {
		t.Fatal("unencodable value not flagged")
	}
}

// TestHeartbeat drives the heartbeat over the line source
// cmd/experiments gives it — the sweep tracker's status line — and pins
// every fragment of that line.
func TestHeartbeat(t *testing.T) {
	var buf bytes.Buffer
	cycles := int64(0)
	tracker := obs.NewFleet([]string{"table1", "table2", "fig4", "fig8"}, func() int64 { return cycles })
	tracker.TrackJobs(func() fleet.Stats {
		return fleet.Stats{BusyWorkers: 3, JobsDone: 40, JobsTotal: 120, Retries: 2, Timeouts: 1}
	})
	tracker.TrackJournal(func() journal.Stats { return journal.Stats{Appended: 38, Lag: 2, Hits: 5} })
	tracker.TrackSampling(func() sampling.Stats { return sampling.Stats{Rounds: 7, Executed: 30, Saved: 12, Pruned: 1} })
	h := StartHeartbeat(&buf, time.Hour, func() string { return tracker.Status().Line() })
	for _, name := range []string{"table1", "table2"} {
		tracker.Start(name)
		time.Sleep(time.Millisecond) // a finished experiment took some wall time: the ETA's pace
		tracker.Finish(name, nil)
	}
	tracker.Start("fig4")
	cycles = 1_000_000
	h.beat()
	line := buf.String()
	for _, want := range []struct{ fragment, what string }{
		{"heartbeat: 2/4 experiments, running fig4", "progress 2/4"},
		{"sim-cycles/s", "throughput"},
		{"fleet 3 busy 40/120 jobs, 2 retries, 1 timeouts", "fleet occupancy"},
		{"journal 38 rec (lag 2), 5 replayed", "journal counters"},
		{"adaptive 7 rounds 12 saved (1 pruned)", "adaptive-sampling counters"},
		{"ETA", "an ETA mid-run"},
	} {
		if !strings.Contains(line, want.fragment) {
			t.Errorf("beat = %q, want %s (%q)", line, want.what, want.fragment)
		}
	}
	h.Stop()
	h.Stop() // idempotent
}

// TestHeartbeatPlainOutput pins the non-TTY contract: beats to a
// non-terminal writer are newline-terminated lines with no escape
// sequences or spinner glyphs, so redirected logs stay grep-able.
func TestHeartbeatPlainOutput(t *testing.T) {
	var buf bytes.Buffer
	h := StartHeartbeat(&buf, time.Hour, func() string { return "0/2 experiments" })
	h.beat()
	h.beat()
	h.Stop()
	out := buf.String()
	if strings.Contains(out, "\x1b") || strings.Contains(out, "\r") {
		t.Fatalf("plain heartbeat emitted terminal escapes: %q", out)
	}
	for _, f := range spinnerFrames {
		if strings.Contains(out, f) {
			t.Fatalf("plain heartbeat emitted spinner glyph %q: %q", f, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 2 {
		t.Fatalf("plain heartbeat wrote %d lines, want 2: %q", got, out)
	}
}

// TestHeartbeatStyledOutput drives the styled renderer directly (tests
// have no TTY to detect) and checks the redraw-in-place protocol.
func TestHeartbeatStyledOutput(t *testing.T) {
	var buf bytes.Buffer
	h := StartHeartbeat(&buf, time.Hour, func() string { return "0/2 experiments" })
	h.styled = true
	h.beat()
	h.beat()
	h.Stop()
	out := buf.String()
	if strings.Count(out, "\r\x1b[2K") != 3 { // 2 redraws + Stop's clear
		t.Fatalf("styled heartbeat missing redraw/clear sequences: %q", out)
	}
	if strings.Contains(out, "\n") {
		t.Fatalf("styled heartbeat should redraw, not append lines: %q", out)
	}
	if !strings.Contains(out, spinnerFrames[0]) || !strings.Contains(out, spinnerFrames[1]) {
		t.Fatalf("spinner did not advance across beats: %q", out)
	}
}

// TestStyledDetection covers every way the interactive mode must turn
// itself off: NO_COLOR set, a non-file writer, and a regular file.
func TestStyledDetection(t *testing.T) {
	if styled(&bytes.Buffer{}) {
		t.Error("non-file writer reported as a terminal")
	}
	f, err := os.CreateTemp(t.TempDir(), "hb")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if styled(f) {
		t.Error("regular file reported as a terminal")
	}
	t.Setenv("NO_COLOR", "1")
	if styled(os.Stderr) {
		t.Error("NO_COLOR did not disable styling")
	}
}
