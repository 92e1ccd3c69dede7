package harness

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"varsim/internal/core"
	"varsim/internal/journal"
	"varsim/internal/sampling"
)

// TestSamplingReplaysTableJournals holds SamplingStudy to its promise
// that a result journal written by table1 and table3 replays into it:
// resumed over that journal, sampling appends no run record for a
// Table 3 benchmark or an N-way arm, and prints what a cache-less run
// prints.
func TestSamplingReplaysTableJournals(t *testing.T) {
	run := func(res core.Resilience, names ...string) string {
		t.Helper()
		var buf bytes.Buffer
		h := New(Options{Out: &buf, Seed: 0xA1A3, Quick: true, Resilience: res})
		for _, name := range names {
			e, _ := Find(name)
			if err := h.RunOne(e); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		return buf.String()
	}
	journaled := func(cache *journal.Cache, names ...string) (string, []journal.Record) {
		t.Helper()
		dir := t.TempDir()
		jw, err := journal.CreateDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := run(core.Resilience{Journal: jw, Cache: cache}, names...)
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		res, err := journal.Load(filepath.Join(dir, journal.FileName))
		if err != nil {
			t.Fatal(err)
		}
		return out, res.Records
	}

	_, tables := journaled(nil, "table1", "table3")
	got, appended := journaled(journal.NewCache(tables), "sampling")
	if want := run(core.Resilience{}, "sampling"); got != want {
		t.Errorf("sampling resumed over the table1/table3 journal prints\n%s\na cache-less run prints\n%s", got, want)
	}

	// The labels studies 1 and 2 file their runs under. Study 3 files
	// its own under "oltp@<checkpoint>", so it shares none of them.
	replayed := map[string]bool{}
	for _, b := range table3Benches {
		replayed[b.name] = true
	}
	for _, assoc := range assocWays {
		replayed[fmt.Sprintf("%d-way", assoc)] = true
	}
	runs := 0
	for _, r := range appended {
		if r.Status == journal.StatusDecision {
			continue
		}
		runs++
		if replayed[r.Experiment] {
			t.Errorf("sampling re-ran %s instead of replaying it", r.Key)
		}
	}
	if runs == 0 {
		t.Error("sampling appended no run record at all: study 3 has no journal to replay")
	}
}

// TestAdaptiveOverrideKeepsTheFixedNCap: a target that sets only the
// relative error (experiments -rel-err without -budget) still caps each
// configuration at the fixed-N baseline, as the zero target does.
func TestAdaptiveOverrideKeepsTheFixedNCap(t *testing.T) {
	for _, at := range []sampling.Target{{}, {RelErr: 0.5}} {
		h := New(Options{Out: &bytes.Buffer{}, Quick: true, Adaptive: at})
		if got := h.adaptiveTarget().MaxRuns; got != h.runs() {
			t.Errorf("Adaptive %+v: MaxRuns %d, want the fixed-N baseline %d", at, got, h.runs())
		}
	}
}
