package harness_test

import (
	"bytes"
	"math"
	"testing"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/precision"
	"varsim/internal/report"
	"varsim/internal/stats"
	"varsim/internal/workloads"
)

// TestPrecisionObserverPreservesByteIdentity pins the precision
// observatory's placement outside the determinism wall: attaching a
// live tracker via Resilience.Observe must not change a single byte of
// the rendered space at any fleet width, and the streaming statistics
// the tracker accumulates (in host completion order) must match the
// batch stats.CI over the final space to 1e-9.
func TestPrecisionObserverPreservesByteIdentity(t *testing.T) {
	const runs = 8
	render := func(workers int, trk *precision.Tracker) ([]byte, core.Space) {
		cfg := config.Default()
		cfg.NumCPUs = 4
		wl, err := workloads.New("oltp", cfg, 11)
		if err != nil {
			t.Fatalf("NewWorkload: %v", err)
		}
		m, err := machine.New(cfg, wl, 7)
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		if _, err := m.Run(15); err != nil {
			t.Fatalf("warmup: %v", err)
		}
		var res core.Resilience
		if trk != nil {
			res.Observe = func(k journal.Key, r machine.Result) {
				trk.Observe(k.Experiment, k.ConfigHash, r.CPT)
			}
		}
		b, err := core.Branch(m, core.BranchPlan{Label: "prec", N: runs, MeasureTxns: 10, SeedBase: 99, Workers: workers, Resilience: res})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sp := b.Space()
		var out bytes.Buffer
		report.WriteSpace(&out, sp)
		return out.Bytes(), sp
	}

	plain, _ := render(1, nil) // reference: no observer at all
	for _, w := range workerWidths() {
		trk := precision.New(0.04, 0.95)
		got, sp := render(w, trk)
		if !bytes.Equal(plain, got) {
			t.Errorf("observed space at -j %d differs from unobserved sequential run:\nplain: %s\ngot:   %s",
				w, plain, got)
		}

		rep := trk.Report()
		if len(rep.Rows) != 1 {
			t.Fatalf("workers=%d: tracker rows = %d, want 1", w, len(rep.Rows))
		}
		row := rep.Rows[0]
		if row.N != len(sp.Values) || row.N != runs {
			t.Errorf("workers=%d: tracker saw %d runs, space has %d (want %d)", w, row.N, len(sp.Values), runs)
		}
		ci, err := stats.CI(sp.Values, 0.95)
		if err != nil {
			t.Fatalf("workers=%d: batch CI: %v", w, err)
		}
		if math.Abs(row.Mean-ci.Mean) > 1e-9 {
			t.Errorf("workers=%d: streaming mean %v vs batch %v", w, row.Mean, ci.Mean)
		}
		if math.Abs(row.HalfWidth-ci.HalfWidth) > 1e-9 {
			t.Errorf("workers=%d: streaming half-width %v vs batch %v", w, row.HalfWidth, ci.HalfWidth)
		}
	}
}
