package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptHook is a minimal in-package TestHook for driving Run's fault
// paths; the richer, reusable version lives in internal/faultinject.
type scriptHook struct {
	mu     sync.Mutex
	before func(index, attempt int) error
	after  []int
}

func (h *scriptHook) BeforeAttempt(index, attempt int) error {
	if h.before == nil {
		return nil
	}
	return h.before(index, attempt)
}

func (h *scriptHook) AfterJob(index int) {
	h.mu.Lock()
	h.after = append(h.after, index)
	h.mu.Unlock()
}

// TestRunRetrySucceedsAfterTransientFailures: a job failing k < retries
// times settles successfully, with the attempt count surfaced to
// OnResult.
func TestRunRetrySucceedsAfterTransientFailures(t *testing.T) {
	hook := &scriptHook{before: func(index, attempt int) error {
		if index == 2 && attempt < 2 {
			return fmt.Errorf("transient fault %d", attempt)
		}
		return nil
	}}
	var gotAttempts atomic.Int64
	got, err := Run(Options[int]{
		Workers:  4,
		Retries:  3,
		TestHook: hook,
		OnResult: func(i, attempts int, v int, err error) {
			if i == 2 {
				gotAttempts.Store(int64(attempts))
			}
		},
	}, 5, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
	if gotAttempts.Load() != 3 {
		t.Errorf("job 2 settled after %d attempts, want 3", gotAttempts.Load())
	}
}

// TestRunRetriesExhausted: a job that fails every attempt surfaces the
// last error as a JobError once retries run out.
func TestRunRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	_, err := Run(Options[int]{Workers: 1, Retries: 2}, 1, func(i int) (int, error) {
		calls.Add(1)
		return 0, errors.New("permanent")
	})
	var je *JobError
	if !errors.As(err, &je) || je.Index != 0 {
		t.Fatalf("Run = %v, want JobError for job 0", err)
	}
	if calls.Load() != 3 {
		t.Errorf("job ran %d times, want 3 (1 + 2 retries)", calls.Load())
	}
}

// TestRunRetryReusesPanickingJob: panics are retryable, matching the
// per-job panic capture Map documents.
func TestRunRetryReusesPanickingJob(t *testing.T) {
	var calls atomic.Int64
	got, err := Run(Options[int]{Workers: 1, Retries: 1}, 1, func(i int) (int, error) {
		if calls.Add(1) == 1 {
			panic("first attempt dies")
		}
		return 42, nil
	})
	if err != nil || got[0] != 42 {
		t.Fatalf("Run = %v, %v; want [42], nil", got, err)
	}
}

// TestRunRetrySeedStability is the regression test for the retry/seed
// contract: every attempt of a retried job observes the *same* derived
// seed, because retry re-invokes the same closure with the same index.
// A table of seed bases stands in for the rng.Derive chain.
func TestRunRetrySeedStability(t *testing.T) {
	derive := func(base uint64, i int) uint64 { return base*0x9E3779B97F4A7C15 + uint64(i) }
	for _, base := range []uint64{0, 1, 0xFEED, 1 << 40, ^uint64(0)} {
		var mu sync.Mutex
		seeds := map[int][]uint64{}
		hook := &scriptHook{before: func(index, attempt int) error {
			if attempt == 0 {
				return errors.New("fail first attempt of every job")
			}
			return nil
		}}
		_, err := Run(Options[uint64]{Workers: 3, Retries: 1, TestHook: hook}, 6,
			func(i int) (uint64, error) {
				s := derive(base, i)
				mu.Lock()
				seeds[i] = append(seeds[i], s)
				mu.Unlock()
				return s, nil
			})
		if err != nil {
			t.Fatalf("base %#x: %v", base, err)
		}
		for i, ss := range seeds {
			for _, s := range ss {
				if s != derive(base, i) {
					t.Errorf("base %#x job %d: attempt saw seed %#x, want %#x (seed drift across retry)",
						base, i, s, derive(base, i))
				}
			}
		}
	}
}

// TestRunTimeout: an attempt that hangs past the timeout fails with
// ErrTimeout; with a retry budget, a later attempt that behaves rescues
// the job.
func TestRunTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	var calls atomic.Int64
	got, err := Run(Options[string]{Workers: 1, Timeout: 20 * time.Millisecond, Retries: 1}, 1,
		func(i int) (string, error) {
			if calls.Add(1) == 1 {
				<-block // hang well past the timeout
			}
			return "ok", nil
		})
	if err != nil || got[0] != "ok" {
		t.Fatalf("Run = %v, %v; want [ok], nil", got, err)
	}

	_, err = Run(Options[string]{Workers: 1, Timeout: 10 * time.Millisecond}, 1,
		func(i int) (string, error) {
			<-block
			return "", nil
		})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Run = %v, want ErrTimeout", err)
	}
}

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
		OnResult: func(i, attempts int, v int, err error) {
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

// TestRunDrainStopsRetries: once Stop fires, a failing job is not
// retried — the fleet drains instead of burning its retry budget.
func TestRunDrainStopsRetries(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	var calls atomic.Int64
	_, err := Run(Options[int]{Workers: 1, Retries: 5, Stop: stop}, 3,
		func(i int) (int, error) {
			calls.Add(1)
			return 0, errors.New("always fails")
		})
	var inc *Incomplete
	if !errors.As(err, &inc) || inc.Done != 0 {
		t.Fatalf("Run = %v, want Incomplete with 0 done", err)
	}
	if calls.Load() != 0 {
		t.Errorf("pre-closed stop still ran %d attempts", calls.Load())
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

// TestRunStatsRetryTimeoutCounters: retry and timeout activity advances
// the process-wide counters the heartbeat and /metrics read.
func TestRunStatsRetryTimeoutCounters(t *testing.T) {
	before := Read()
	hook := &scriptHook{before: func(index, attempt int) error {
		if attempt == 0 {
			return errors.New("force one retry")
		}
		return nil
	}}
	if _, err := Run(Options[int]{Workers: 1, Retries: 1, TestHook: hook}, 2,
		func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	Run(Options[int]{Workers: 1, Timeout: 5 * time.Millisecond}, 1,
		func(i int) (int, error) { <-block; return 0, nil })
	after := Read()
	if d := after.Retries - before.Retries; d != 2 {
		t.Errorf("Retries advanced by %d, want 2", d)
	}
	if d := after.Timeouts - before.Timeouts; d != 1 {
		t.Errorf("Timeouts advanced by %d, want 1", d)
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
