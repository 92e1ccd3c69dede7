// Package faultinject is the test-only fault scripting layer behind
// fleet.TestHook: it can make job N panic, hang past its timeout, fail
// M times then succeed, or pull the drain signal after K completions —
// the faults the resilience layer (docs/RESILIENCE.md) exists to
// absorb, injected deterministically so the retry/resume matrix is
// actually testable.
//
// The package is wired through an injected interface, not a build tag:
// fleet.Options.TestHook (and core.Resilience.TestHook above it) is nil
// on every production path, and no non-test code constructs a Hook.
// Like fleet, this package lives outside the determinism wall — its
// whole purpose is to perturb scheduling and inject failures — and the
// detwall fixture pins that placement.
package faultinject

import (
	"fmt"
	"sync"
)

// Hook scripts faults into fleet job attempts. The zero value injects
// nothing; compose faults by setting fields. Safe for concurrent use
// by fleet workers.
type Hook struct {
	// PanicOn panics the first attempt of each listed job index — the
	// in-process stand-in for a crash mid-job. Later attempts run
	// clean, so the job is rescuable by retry.
	PanicOn map[int]bool
	// HangOn blocks the first attempt of each listed job index on
	// Release until the fleet's timeout abandons it. Later attempts
	// run clean.
	HangOn map[int]bool
	// FailTimes fails the first N attempts of each job index with a
	// transient error, then lets attempt N succeed — the shape retry
	// exists for.
	FailTimes map[int]int
	// StopAfter, when > 0 with Stop set, closes Stop once that many
	// jobs have settled — the in-process stand-in for a mid-flight
	// SIGKILL, used by the kill-and-resume tests.
	StopAfter int
	// Stop is the drain channel StopAfter closes (the same channel
	// handed to fleet.Options.Stop).
	Stop chan struct{}
	// Release, when non-nil, is closed by hung attempts' eventual
	// wake-up path so tests can unblock abandoned goroutines at
	// teardown. Hung attempts block on it; close it when done.
	Release chan struct{}

	mu       sync.Mutex
	settled  int
	stopOnce sync.Once
}

// BeforeAttempt implements fleet.TestHook: consult the scripted faults
// for this (index, attempt) pair.
func (h *Hook) BeforeAttempt(index, attempt int) error {
	if h.PanicOn[index] && attempt == 0 {
		panic(fmt.Sprintf("faultinject: scripted panic in job %d", index))
	}
	if h.HangOn[index] && attempt == 0 {
		if h.Release != nil {
			<-h.Release
		} else {
			select {} // hang forever; the timeout abandons this goroutine
		}
	}
	if n := h.FailTimes[index]; attempt < n {
		return fmt.Errorf("faultinject: scripted failure %d/%d in job %d", attempt+1, n, index)
	}
	return nil
}

// AfterJob implements fleet.TestHook: count settlements and fire the
// scripted drain once StopAfter of them have happened.
func (h *Hook) AfterJob(index int) {
	if h.StopAfter <= 0 || h.Stop == nil {
		return
	}
	h.mu.Lock()
	h.settled++
	fire := h.settled >= h.StopAfter
	h.mu.Unlock()
	if fire {
		h.stopOnce.Do(func() { close(h.Stop) })
	}
}
