package session

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"varsim/internal/obs"
)

// readManifest writes m to a file and decodes it back.
func readManifest(t *testing.T, m *Manifest) Manifest {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.writeFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("manifest file is not valid JSON: %v\n%s", err, b)
	}
	return got
}

// TestManifest exercises the provenance manifest end to end: stamping,
// the ledger's totals and rows (pending rows left out), and the JSON
// round trip.
func TestManifest(t *testing.T) {
	m := newManifest("testtool", 42)
	m.Args = []string{"-quick"}
	rows := []obs.ExperimentStatus{
		{Name: "good", State: obs.StateDone, WallSecs: 2, SimCycles: 4_000_000, SimCyclesPerSec: 2_000_000, Jobs: 3},
		{Name: "bad", State: obs.StateFailed, WallSecs: 1, Error: "boom"},
		{Name: "cut", State: obs.StateDrained, WallSecs: 1, SimCycles: 1_000_000, SimCyclesPerSec: 1_000_000, Error: "drained"},
	}
	m.finish(obs.FleetStatus{
		ElapsedSecs: 5, SimCycles: 5_000_000, SimCyclesPerSec: 1_000_000,
		Experiments: append(append([]obs.ExperimentStatus(nil), rows...), obs.ExperimentStatus{Name: "never", State: obs.StatePending}),
	})

	got := readManifest(t, m)
	if got.Tool != "testtool" || got.Seed != 42 {
		t.Fatalf("identity wrong: %+v", got)
	}
	if got.GoVersion == "" || got.GOOS == "" || got.StartTime == "" || got.EndTime == "" {
		t.Fatalf("toolchain/time stamps missing: %+v", got)
	}
	if _, err := time.Parse(time.RFC3339, got.StartTime); err != nil {
		t.Fatalf("start time not RFC3339: %v", err)
	}
	if got.WallSecs != 5 || got.SimCycles != 5_000_000 || got.SimCyclesPerSec != 1_000_000 {
		t.Fatalf("totals = %v s, %d cycles, %v cycles/s; want the ledger's 5, 5000000, 1e6", got.WallSecs, got.SimCycles, got.SimCyclesPerSec)
	}
	if !reflect.DeepEqual(got.Experiments, rows) {
		t.Fatalf("experiments = %+v, want the started rows %+v", got.Experiments, rows)
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
// the JSON round trip.
func TestManifestGitFieldsRoundTrip(t *testing.T) {
	m := newManifest("t", 1)
	m.GitCommit, m.GitDirty = "0123abcd", true
	m.finish(obs.FleetStatus{})
	if got := readManifest(t, m); got.GitCommit != "0123abcd" || !got.GitDirty {
		t.Fatalf("git provenance lost: %+v", got)
	}
}

func TestManifestWriteFile(t *testing.T) {
	m := newManifest("t", 1)
	m.finish(obs.FleetStatus{})
	if err := m.writeFile(filepath.Join(t.TempDir(), "missing", "run.json")); err == nil {
		t.Fatal("manifest written into a directory that does not exist")
	}
	if got := readManifest(t, m); got.Tool != "t" || got.Experiments != nil {
		t.Fatalf("manifest with no experiments = %+v", got)
	}
}
