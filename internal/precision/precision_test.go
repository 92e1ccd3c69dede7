package precision

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"varsim/internal/sampling"
	"varsim/internal/stats"
)

func TestTrackerMatchesBatch(t *testing.T) {
	trk := New(0.04, 0.95)
	xs := []float64{250, 251, 249, 250.5, 249.5, 252, 248}
	for _, x := range xs {
		if err := trk.Observe("table1", "cfg-a", x); err != nil {
			t.Fatalf("Observe(%v): %v", x, err)
		}
	}
	rep := trk.Report()
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rep.Rows))
	}
	r := rep.Rows[0]
	if r.Insufficient {
		t.Fatalf("row marked insufficient after %d runs", len(xs))
	}
	ci, err := stats.CI(xs, 0.95)
	if err != nil {
		t.Fatalf("batch CI: %v", err)
	}
	if d := math.Abs(r.Mean - ci.Mean); d > 1e-9 {
		t.Errorf("tracker mean %v vs batch %v", r.Mean, ci.Mean)
	}
	if d := math.Abs(r.HalfWidth - ci.HalfWidth); d > 1e-9 {
		t.Errorf("tracker half-width %v vs batch %v", r.HalfWidth, ci.HalfWidth)
	}
	wantRel := 100 * ci.HalfWidth / ci.Mean
	if d := math.Abs(r.RelHalfWidthPct - wantRel); d > 1e-9 {
		t.Errorf("tracker rel half-width %v vs batch-derived %v", r.RelHalfWidthPct, wantRel)
	}
	if r.N != len(xs) {
		t.Errorf("N = %d, want %d", r.N, len(xs))
	}
	// History logs one achieved-precision point per run once a CI
	// exists (from the second run on), ending at the current value.
	if len(r.History) != len(xs)-1 {
		t.Errorf("history length = %d, want %d", len(r.History), len(xs)-1)
	} else if last := r.History[len(r.History)-1]; last != r.RelHalfWidthPct {
		t.Errorf("history terminal %v != achieved %v", last, r.RelHalfWidthPct)
	}
}

func TestTrackerInsufficientAndRejected(t *testing.T) {
	trk := New(0, 0) // defaults
	if err := trk.Observe("e", "c", 42); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if err := trk.Observe("e", "c", math.NaN()); err == nil {
		t.Fatal("Observe accepted NaN")
	}
	if err := trk.Observe("e", "c", math.Inf(1)); err == nil {
		t.Fatal("Observe accepted +Inf")
	}
	rep := trk.Report()
	if rep.RelErr != sampling.DefaultRelErr || rep.Confidence != sampling.DefaultConfidence {
		t.Fatalf("target = %v, %v; want defaults", rep.RelErr, rep.Confidence)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rep.Rows))
	}
	r := rep.Rows[0]
	if !r.Insufficient {
		t.Error("single-run row not marked insufficient")
	}
	if r.N != 1 || r.Rejected != 2 {
		t.Errorf("N=%d Rejected=%d, want 1 and 2", r.N, r.Rejected)
	}
	if r.HalfWidth != 0 || r.RelHalfWidthPct != 0 || r.RunsNeeded != 0 {
		t.Errorf("insufficient row carries CI fields: %+v", r)
	}
	// The whole report must survive json.Marshal — no NaNs anywhere.
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not JSON-safe: %v", err)
	}
}

func TestTrackerSortedRows(t *testing.T) {
	trk := New(0.04, 0.95)
	feed := func(exp, cfg string) {
		trk.Observe(exp, cfg, 10)
		trk.Observe(exp, cfg, 11)
	}
	feed("zeta", "c1")
	feed("alpha", "c2")
	feed("alpha", "c1")
	rep := trk.Report()
	want := [][2]string{
		{"alpha", "c1"},
		{"alpha", "c2"},
		{"zeta", "c1"},
	}
	if len(rep.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(want))
	}
	for i, w := range want {
		r := rep.Rows[i]
		if r.Experiment != w[0] || r.ConfigHash != w[1] {
			t.Errorf("row %d = (%s,%s), want %v", i, r.Experiment, r.ConfigHash, w)
		}
	}
}

func TestTrackerConvergence(t *testing.T) {
	trk := New(0.04, 0.95)
	// A very tight sample: CoV ~0.004%, converged immediately.
	for _, x := range []float64{1000, 1000.01, 999.99, 1000.005} {
		trk.Observe("tight", "c", x)
	}
	// A wide sample: CoV ~40%, far from 4% precision at n=4.
	for _, x := range []float64{100, 180, 60, 140} {
		trk.Observe("wide", "c", x)
	}
	rep := trk.Report()
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	tight, wide := rep.Rows[0], rep.Rows[1]
	if !tight.Converged {
		t.Errorf("tight sample not converged: %+v", tight)
	}
	if tight.RunsToGo != 0 {
		t.Errorf("tight sample RunsToGo = %d, want 0", tight.RunsToGo)
	}
	if wide.Converged {
		t.Errorf("wide sample marked converged: %+v", wide)
	}
	if wide.RunsNeeded <= wide.N || wide.RunsToGo != wide.RunsNeeded-wide.N {
		t.Errorf("wide sample runs accounting off: needed=%d toGo=%d n=%d",
			wide.RunsNeeded, wide.RunsToGo, wide.N)
	}
}

func TestTrackerSummary(t *testing.T) {
	var nilTrk *Tracker
	if s := nilTrk.Summary(); s != "" {
		t.Errorf("nil tracker Summary = %q, want empty", s)
	}
	trk := New(0.04, 0.95)
	if s := trk.Summary(); s != "" {
		t.Errorf("empty tracker Summary = %q, want empty", s)
	}
	trk.Observe("table1", "c", 5)
	if s := trk.Summary(); s != "precision 0/1 measurable" {
		t.Errorf("single-run Summary = %q", s)
	}
	trk.Observe("table1", "c", 5.001)
	s := trk.Summary()
	if s == "" {
		t.Fatal("Summary empty with a measurable sample")
	}
	if want := "precision 1/1 at ±4%"; len(s) < len(want) || s[:len(want)] != want {
		t.Errorf("Summary = %q, want prefix %q", s, want)
	}
}

func TestTrackerNilSafe(t *testing.T) {
	var trk *Tracker
	if err := trk.Observe("e", "c", 1); err != nil {
		t.Errorf("nil Observe returned %v", err)
	}
	rep := trk.Report()
	if rep.Rows == nil || len(rep.Rows) != 0 {
		t.Errorf("nil Report rows = %#v, want empty non-nil", rep.Rows)
	}
	if b, err := json.Marshal(rep); err != nil || string(b) == "" {
		t.Errorf("nil Report not marshalable: %v", err)
	}
}

// TestTrackerConcurrent exercises Observe and Report under the race
// detector from many goroutines (make race covers this package).
func TestTrackerConcurrent(t *testing.T) {
	trk := New(0.04, 0.95)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				trk.Observe("exp", "cfg", 100+float64((w*perWorker+i)%7))
				if i%10 == 0 {
					trk.Report()
					trk.Summary()
				}
			}
		}(w)
	}
	wg.Wait()
	rep := trk.Report()
	if len(rep.Rows) != 1 || rep.Rows[0].N != workers*perWorker {
		t.Fatalf("after concurrent feed: rows=%d n=%d, want 1 row of %d",
			len(rep.Rows), rep.Rows[0].N, workers*perWorker)
	}
}

// TestTrackerHistoryBound pins the sparkline buffer's cap: the history
// never exceeds maxHistory and keeps the most recent values.
func TestTrackerHistoryBound(t *testing.T) {
	trk := New(0.04, 0.95)
	total := maxHistory + 40
	for i := 0; i < total; i++ {
		trk.Observe("e", "c", 100+float64(i%9))
	}
	r := trk.Report().Rows[0]
	if len(r.History) != maxHistory {
		t.Fatalf("history length = %d, want %d", len(r.History), maxHistory)
	}
	if last := r.History[len(r.History)-1]; last != r.RelHalfWidthPct {
		t.Errorf("history terminal %v != achieved %v", last, r.RelHalfWidthPct)
	}
}
