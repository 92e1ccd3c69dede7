package fleet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestRunDrain: closing Stop mid-run finishes in-flight jobs, journals
// them through OnResult, and reports the never-run indices as
// Incomplete.
func TestRunDrain(t *testing.T) {
	stop := make(chan struct{})
	var onResult []int
	var mu sync.Mutex
	got, err := Run(Options[int]{
		Workers: 1,
		Stop:    stop,
		OnResult: func(i int, v int, err error) {
			mu.Lock()
			onResult = append(onResult, i)
			mu.Unlock()
		},
	}, 6, func(i int) (int, error) {
		if i == 2 {
			close(stop) // drain fires while job 2 is in flight
		}
		return i + 10, nil
	})
	var inc *Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("Run = %v, want *Incomplete", err)
	}
	if inc.Done != 3 || inc.Total != 6 {
		t.Errorf("Incomplete = %d/%d done, want 3/6", inc.Done, inc.Total)
	}
	if len(inc.Missing) != 3 || inc.Missing[0] != 3 {
		t.Errorf("Missing = %v, want [3 4 5]", inc.Missing)
	}
	// The in-flight job (2) completed and was journaled.
	if got[2] != 12 || len(onResult) != 3 {
		t.Errorf("drained run: results[2]=%d onResult=%v, want 12 and 3 settlements", got[2], onResult)
	}
}

// TestRunErrorBeatsIncomplete: a real job failure outranks the drain
// marker — callers must see the failure, not a resumable partial.
func TestRunErrorBeatsIncomplete(t *testing.T) {
	stop := make(chan struct{})
	_, err := Run(Options[int]{Workers: 1, Stop: stop}, 4, func(i int) (int, error) {
		if i == 1 {
			close(stop)
			return 0, errors.New("boom")
		}
		return i, nil
	})
	var je *JobError
	if !errors.As(err, &je) || je.Index != 1 {
		t.Fatalf("Run = %v, want the job-1 failure to outrank Incomplete", err)
	}
}

// TestRunZeroOptionsMatchesMap: Run with a zero Options is Map — same
// merge, same error conversion — so Map's delegate introduces no drift.
func TestRunZeroOptionsMatchesMap(t *testing.T) {
	job := func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i * 2, nil
	}
	rv, rerr := Run(Options[int]{}, 5, job)
	mv, merr := Map(0, 5, job)
	if fmt.Sprint(rv) != fmt.Sprint(mv) || fmt.Sprint(rerr) != fmt.Sprint(merr) {
		t.Errorf("Run(zero) = %v,%v; Map = %v,%v — delegate drift", rv, rerr, mv, merr)
	}
}
