package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"varsim/internal/obs"
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

// TestHeartbeat pins every fragment of the line the heartbeat prints
// for a sweep-tracker status (obs.FleetStatus.Line, which /status
// serves too).
func TestHeartbeat(t *testing.T) {
	var buf bytes.Buffer
	st := obs.FleetStatus{
		Total: 4, Done: 2, Failed: 1, Running: []string{"fig4"},
		ElapsedSecs: 75, ETASecs: 30, SimCycles: 1_000_000, SimCyclesPerSec: 2.5e6,
		WorkersBusy: 3, JobsDone: 40, JobsTotal: 120,
		JournalAppended: 38, JournalLag: 2, JournalReplayed: 5,
		SamplingRounds: 7, SamplingExecuted: 30, SamplingSaved: 12,
	}
	h := StartHeartbeat(&buf, time.Hour, st.Line)
	h.beat()
	want := "heartbeat: 2/4 experiments (1 failed), running fig4, elapsed 1m15s, 2.5e+06 sim-cycles/s, " +
		"fleet 3 busy 40/120 jobs, journal 38 rec (lag 2), 5 replayed, " +
		"adaptive 7 rounds 12 saved, ETA ~30s\n"
	if got := buf.String(); got != want {
		t.Errorf("beat = %q\nwant %q", got, want)
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
