package faultinject

import (
	"errors"
	"testing"
	"time"

	"varsim/internal/fleet"
)

// TestPanicOnIsRetryable: a scripted panic on attempt 0 is captured by
// the fleet and rescued by a retry.
func TestPanicOnIsRetryable(t *testing.T) {
	h := &Hook{PanicOn: map[int]bool{1: true}}
	got, err := fleet.Run(fleet.Options[int]{Workers: 2, Retries: 1, TestHook: h}, 3,
		func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[1] != 2 {
		t.Errorf("job 1 = %d, want 2 after rescue", got[1])
	}
}

// TestHangOnTriggersTimeout: a scripted hang is abandoned by the
// per-attempt timeout; the retry runs clean.
func TestHangOnTriggersTimeout(t *testing.T) {
	rel := make(chan struct{})
	defer close(rel)
	h := &Hook{HangOn: map[int]bool{0: true}, Release: rel}
	got, err := fleet.Run(fleet.Options[int]{
		Workers: 1, Timeout: 20 * time.Millisecond, Retries: 1, TestHook: h,
	}, 1, func(i int) (int, error) { return 7, nil })
	if err != nil || got[0] != 7 {
		t.Fatalf("Run = %v, %v; want [7], nil", got, err)
	}

	// Without a retry budget the hang surfaces as ErrTimeout.
	h2 := &Hook{HangOn: map[int]bool{0: true}, Release: rel}
	_, err = fleet.Run(fleet.Options[int]{
		Workers: 1, Timeout: 10 * time.Millisecond, TestHook: h2,
	}, 1, func(i int) (int, error) { return 0, nil })
	if !errors.Is(err, fleet.ErrTimeout) {
		t.Fatalf("Run = %v, want ErrTimeout", err)
	}
}

// TestFailTimesThenSucceed: a job failing M times settles on attempt
// M+1 when the retry budget covers it, and fails terminally otherwise.
func TestFailTimesThenSucceed(t *testing.T) {
	h := &Hook{FailTimes: map[int]int{2: 2}}
	var attempts int
	_, err := fleet.Run(fleet.Options[int]{
		Workers: 1, Retries: 2, TestHook: h,
		OnResult: func(i, a int, v int, err error) {
			if i == 2 {
				attempts = a
			}
		},
	}, 4, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if attempts != 3 {
		t.Errorf("job 2 settled after %d attempts, want 3", attempts)
	}

	h2 := &Hook{FailTimes: map[int]int{0: 5}}
	_, err = fleet.Run(fleet.Options[int]{Workers: 1, Retries: 1, TestHook: h2}, 1,
		func(i int) (int, error) { return 0, nil })
	var je *fleet.JobError
	if !errors.As(err, &je) {
		t.Fatalf("Run = %v, want terminal JobError", err)
	}
}

// TestStopAfterDrains: the scripted kill closes the drain channel after
// K settlements and the fleet reports Incomplete.
func TestStopAfterDrains(t *testing.T) {
	stop := make(chan struct{})
	h := &Hook{StopAfter: 2, Stop: stop}
	_, err := fleet.Run(fleet.Options[int]{Workers: 1, Stop: stop, TestHook: h}, 8,
		func(i int) (int, error) { return i, nil })
	var inc *fleet.Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("Run = %v, want *Incomplete", err)
	}
	if inc.Done != 2 || h.settled != 2 {
		t.Errorf("drained after %d done / %d settled, want 2 / 2", inc.Done, h.settled)
	}
}
