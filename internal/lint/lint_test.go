package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"varsim/internal/lint"
	"varsim/internal/lint/analysis"
	"varsim/internal/lint/puritywall"
)

// TestRealTreeIsClean is the acceptance gate: the whole module must
// pass the determinism suite with no findings beyond the documented
// //varsim:allow suppressions (which Run already filters out).
func TestRealTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	findings, err := lint.Run("", []string{"varsim/..."}, lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestSeededViolation proves the driver actually fires end-to-end: a
// scratch module with a known maporder violation must produce exactly
// that finding.
func TestSeededViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tempmod\n\ngo 1.22\n")
	write("bad.go", `package tempmod

// Keys leaks map iteration order into a slice.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)

	findings, err := lint.Run(dir, []string{"./..."}, lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "maporder" {
		t.Errorf("finding analyzer = %q, want maporder", f.Analyzer)
	}
	if !strings.Contains(f.Message, "append to out inside range over map") {
		t.Errorf("unexpected message: %s", f.Message)
	}
	if filepath.Base(f.Pos.Filename) != "bad.go" || f.Pos.Line != 6 {
		t.Errorf("finding at %s, want bad.go:6", f.Pos)
	}
}

// TestByName covers analyzer lookup used by the -analyzers CLI flag.
func TestByName(t *testing.T) {
	for _, name := range []string{
		"detwall", "seedflow", "maporder", "kindexhaust",
		"synccheck", "stickyerr", "floatorder", "puritywall", "staleallow",
	} {
		a := lint.ByName(name)
		if a == nil || a.Name != name {
			t.Errorf("ByName(%q) = %v", name, a)
		}
	}
	if a := lint.ByName("nope"); a != nil {
		t.Errorf("ByName(nope) = %v, want nil", a)
	}
}

// TestSeededPurityViolation drives the whole-program pass through the
// driver: a scratch module named varsim puts its package inside the
// wall, and a transitive wall-clock chain must surface with the full
// call path in the message.
func TestSeededPurityViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module varsim\n\ngo 1.22\n")
	write("internal/helper/helper.go", `package helper

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	write("internal/core/bad.go", `package core

import "varsim/internal/helper"

func Tick() int64 { return helper.Stamp() }
`)

	findings, err := lint.Run(dir, []string{"./..."}, []*analysis.Analyzer{puritywall.Analyzer})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "puritywall" {
		t.Errorf("analyzer = %q, want puritywall", f.Analyzer)
	}
	want := "determinism-wall breach: core.Tick calls helper.Stamp; helper.Stamp calls time.Now (wall-clock read)"
	if f.Message != want {
		t.Errorf("message = %q\nwant      %q", f.Message, want)
	}
	if f.File != "internal/core/bad.go" {
		t.Errorf("file = %q (must be root-relative)", f.File)
	}
}

// TestSeededStaleAllow drives the directive audit through the driver: a
// suppression that no longer suppresses anything is itself a finding.
func TestSeededStaleAllow(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tempmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ok.go"), []byte(`package tempmod

// Sum is clean: the allow below earned nothing.
func Sum(vs []int) int {
	//varsim:allow maporder left over from a deleted loop
	total := 0
	for _, v := range vs {
		total += v
	}
	return total
}
`), 0o644); err != nil {
		t.Fatal(err)
	}

	findings, err := lint.Run(dir, []string{"./..."}, lint.Analyzers())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "staleallow" {
		t.Errorf("analyzer = %q, want staleallow", f.Analyzer)
	}
	if !strings.Contains(f.Message, "stale varsim:allow maporder (left over from a deleted loop)") {
		t.Errorf("message = %q", f.Message)
	}
}
