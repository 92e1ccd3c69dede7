// Package examples_test builds the five example programs and holds each
// one's stdout to its golden. All five are deterministic: fixed seeds,
// and a fleet whose width never moves a byte.
package examples_test

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

func TestExamplesMatchGoldens(t *testing.T) {
	// Zipf popularity goes through math.Pow, whose last bit may differ
	// between architectures (see the harness goldens).
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens were recorded on GOARCH amd64; this is %s", runtime.GOARCH)
	}
	// go test keys its result cache on the files the test process itself
	// reads, and the examples are built by a child process; so list
	// their sources, or a change to one would be answered from the cache.
	for _, src := range []string{".", "../internal"} {
		filepath.WalkDir(src, func(string, fs.DirEntry, error) error { return nil })
	}
	bins := t.TempDir()
	for _, name := range []string{"cachestudy", "checkpointstudy", "quickstart", "samplesize", "traceanalysis"} {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(bins, name)
			if out, err := exec.Command("go", "build", "-o", bin, "varsim/examples/"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			cmd := exec.Command(bin)
			cmd.Dir = t.TempDir()
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}
