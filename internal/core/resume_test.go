// Kill-and-resume integration tests: the docs/RESILIENCE.md contract,
// asserted over rendered report bytes. These live in an external test
// package so they can render through internal/report (which imports
// core) without an import cycle.
package core_test

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/report"
)

// resumeRuns exceeds every tested fleet width (1, 4, NumCPU) by enough
// that a drain fired after two settlements can never be outrun by
// in-flight workers: completed runs are at most 2 + width
// < Runs, so the interrupted pass is guaranteed to leave work for the
// resume.
func resumeRuns() int {
	w := runtime.NumCPU()
	if w < 4 {
		w = 4
	}
	return w + 4
}

// resumeExperiment is the fixture for the resume tests.
func resumeExperiment(workers int) core.Experiment {
	cfg := config.Default()
	cfg.NumCPUs = 4
	return core.Experiment{
		Label:        "resume-test",
		Config:       cfg,
		Workload:     "oltp",
		WorkloadSeed: 7,
		WarmupTxns:   20,
		MeasureTxns:  20,
		Runs:         resumeRuns(),
		SeedBase:     0xFEED,
		Workers:      workers,
	}
}

func renderSpace(sp core.Space) []byte {
	var buf bytes.Buffer
	report.WriteSpace(&buf, sp)
	return buf.Bytes()
}

// TestKillAndResumeByteIdentical is the headline resilience test: a run
// drained mid-flight (the in-process stand-in for a SIGKILL — journal
// appends are fsync'd per record, so everything settled is durable even
// though the interrupted writer is never closed) must, after a resume
// from its journal, produce a report byte-identical to an uninterrupted
// sequential run. Verified at fleet widths 1, 4 and NumCPU.
func TestKillAndResumeByteIdentical(t *testing.T) {
	base := resumeExperiment(1)
	sp, err := base.RunSpace()
	if err != nil {
		t.Fatal(err)
	}
	want := renderSpace(sp)

	for _, width := range []int{1, 4, runtime.NumCPU()} {
		t.Run(label(width), func(t *testing.T) {
			dir := t.TempDir()
			jw, err := journal.CreateDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			e := resumeExperiment(width)
			e.Resilience = drainAfter(2, core.Resilience{Journal: jw})
			part, err := e.RunSpace()
			var inc *fleet.Incomplete
			if !errors.As(err, &inc) {
				t.Fatalf("drained run returned %v, want *fleet.Incomplete", err)
			}
			if !part.Incomplete() || len(part.Missing) == 0 {
				t.Fatalf("drained space not marked incomplete: %+v", part)
			}
			if got := renderSpace(part); !bytes.Contains(got, []byte("INCOMPLETE")) {
				t.Fatalf("partial report missing INCOMPLETE banner:\n%s", got)
			}
			if jerr := jw.Err(); jerr != nil {
				t.Fatalf("journal writer failed during drain: %v", jerr)
			}
			// No jw.Close(): a killed process never closes its journal.

			jc, jw2, err := journal.OpenDir(dir, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			journaled := countJournaled(t, dir, journal.StatusOK)
			if journaled != len(part.Values) {
				t.Fatalf("journal replayed %d records, drained run settled %d", journaled, len(part.Values))
			}
			before := journal.ReadStats().Hits
			r := resumeExperiment(width)
			r.Resilience = core.Resilience{Journal: jw2, Cache: jc}
			full, err := r.RunSpace()
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if cerr := jw2.Close(); cerr != nil {
				t.Fatalf("resume journal close: %v", cerr)
			}
			if hits := journal.ReadStats().Hits - before; hits < int64(journaled) {
				t.Errorf("resume replayed only %d of %d journaled runs", hits, journaled)
			}
			if got := renderSpace(full); !bytes.Equal(got, want) {
				t.Errorf("resumed report differs from uninterrupted run at width %d\n got:\n%s\nwant:\n%s",
					width, got, want)
			}
		})
	}
}

// TestResumeFinishedExperimentSkipsWarmup pins the covered-plan fast
// path: resuming an experiment whose journal covers every run replays
// the whole space — byte-identical — without preparing the machine or
// simulating a cycle.
func TestResumeFinishedExperimentSkipsWarmup(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := resumeExperiment(4)
	e.Resilience = core.Resilience{Journal: jw}
	sp, err := e.RunSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	jc, jw2, err := journal.OpenDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer jw2.Close()
	r := resumeExperiment(4)
	r.Resilience = core.Resilience{Journal: jw2, Cache: jc}
	var full core.Space
	if c := simulated(t, func() (err error) { full, err = r.RunSpace(); return err }); c != 0 {
		t.Errorf("resuming a finished experiment simulated %d cycles, want 0", c)
	}
	if !bytes.Equal(renderSpace(full), renderSpace(sp)) {
		t.Error("RunSpace via cache differs from original run")
	}
}

// drainAfter is the in-process stand-in for a mid-flight SIGKILL: res
// with a Stop channel that its Observe closes once k runs have settled.
func drainAfter(k int, res core.Resilience) core.Resilience {
	stop := make(chan struct{})
	var mu sync.Mutex
	settled := 0
	res.Stop = stop
	res.Observe = func(journal.Key, machine.Result) {
		mu.Lock()
		defer mu.Unlock()
		if settled++; settled == k {
			close(stop)
		}
	}
	return res
}

func label(width int) string {
	switch width {
	case 1:
		return "width-1"
	case 4:
		return "width-4"
	default:
		return "width-numcpu"
	}
}
