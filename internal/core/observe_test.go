// Observe-hook tests: the precision observatory's feed point
// (Resilience.Observe) must see every successful run exactly once —
// live from the fleet and replayed from the resume cache — without
// perturbing results.
package core_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"varsim/internal/core"
	"varsim/internal/journal"
	"varsim/internal/machine"
)

// observeLog is a minimal concurrent-safe Observe sink.
type observeLog struct {
	mu   sync.Mutex
	byIx map[int]float64 // run index -> observed CPT
	n    int
}

func (o *observeLog) hook() func(journal.Key, machine.Result) {
	return func(k journal.Key, r machine.Result) {
		o.mu.Lock()
		defer o.mu.Unlock()
		if o.byIx == nil {
			o.byIx = map[int]float64{}
		}
		o.byIx[k.Index] = r.CPT
		o.n++
	}
}

func TestObserveSeesEveryRunOnce(t *testing.T) {
	for _, width := range []int{1, 4, runtime.NumCPU()} {
		t.Run(label(width), func(t *testing.T) {
			plain := resumeExperiment(width)
			want, err := plain.RunSpace()
			if err != nil {
				t.Fatal(err)
			}
			var log observeLog
			e := resumeExperiment(width)
			e.Resilience = core.Resilience{Observe: (&log).hook()}
			sp, err := e.RunSpace()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderSpace(sp), renderSpace(want)) {
				t.Errorf("width %d: observed run differs from plain run", width)
			}
			if log.n != e.Runs || len(log.byIx) != e.Runs {
				t.Fatalf("width %d: observed %d calls over %d indices, want %d runs once each",
					width, log.n, len(log.byIx), e.Runs)
			}
			for i, v := range sp.Values {
				if log.byIx[i] != v {
					t.Errorf("width %d: run %d observed CPT %v, space holds %v", width, i, log.byIx[i], v)
				}
			}
		})
	}
}

func TestObserveFedFromCacheReplay(t *testing.T) {
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
	var log observeLog
	r := resumeExperiment(4)
	r.Resilience = core.Resilience{Journal: jw2, Cache: jc, Observe: (&log).hook()}
	full, err := r.RunSpace() // every run replays
	if err != nil {
		t.Fatal(err)
	}
	if log.n != r.Runs {
		t.Fatalf("cache replay observed %d calls, want %d", log.n, r.Runs)
	}
	for i, v := range full.Values {
		if log.byIx[i] != v || v != sp.Values[i] {
			t.Errorf("run %d: observed %v, replayed %v, original %v", i, log.byIx[i], v, sp.Values[i])
		}
	}
}
