package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedModule writes a scratch module with one maporder violation and
// chdirs into it for the duration of the test (run() lints the
// current directory).
func seedModule(t *testing.T) string {
	t.Helper()
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
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	return dir
}

func TestTextFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	seedModule(t)
	var out bytes.Buffer
	if code := run([]string{"./..."}, &out); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "[maporder]") {
		t.Errorf("text output missing finding:\n%s", out.String())
	}
}

func TestGitHubFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	seedModule(t)
	var out bytes.Buffer
	if code := run([]string{"-format", "github", "./..."}, &out); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	line := strings.TrimSpace(out.String())
	if !strings.HasPrefix(line, "::error file=bad.go,line=6,") {
		t.Errorf("annotation = %q", line)
	}
	if !strings.Contains(line, "title=varsimlint maporder") {
		t.Errorf("annotation missing title: %q", line)
	}
}

func TestUnknownFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	seedModule(t)
	var out bytes.Buffer
	if code := run([]string{"-format", "yaml", "./..."}, &out); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
