package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapMergesByIndex is the scheduler's core invariant: results land
// at their job's index no matter which worker finishes first. Jobs
// sleep inversely to their index so late jobs complete early.
func TestMapMergesByIndex(t *testing.T) {
	const n = 16
	got, err := Map(4, n, func(i int) (int, error) {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		return i * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*10 {
			t.Errorf("results[%d] = %d, want %d", i, v, i*10)
		}
	}
}

// TestWorkersExceedJobCount: a pool wider than the job list must clamp
// and still produce every result exactly once.
func TestWorkersExceedJobCount(t *testing.T) {
	var calls atomic.Int64
	got, err := Map(64, 3, func(i int) (int, error) {
		calls.Add(1)
		return i + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("job ran %d times, want 3", calls.Load())
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("results = %v, want [1 2 3]", got)
	}
}

// TestSequentialDegenerate: workers == 1 must run jobs in index order
// on the calling goroutine — the property only the sequential path has.
func TestSequentialDegenerate(t *testing.T) {
	var order []int
	_, err := Map(1, 5, func(i int) (int, error) {
		order = append(order, i) // safe: sequential path, no goroutines
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential path ran jobs in order %v, want ascending", order)
		}
	}
}

// TestPanicMidFleet: a panicking job must not take the fleet down; the
// remaining jobs still complete, and the surfaced error carries the
// panicking job's index regardless of worker count.
func TestPanicMidFleet(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var completed atomic.Int64
		_, err := Map(workers, 8, func(i int) (int, error) {
			if i == 2 {
				panic("synthetic fault")
			}
			completed.Add(1)
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error from panicking job", workers)
		}
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("workers=%d: error %T does not unwrap to *JobError", workers, err)
		}
		if je.Index != 2 {
			t.Errorf("workers=%d: JobError.Index = %d, want 2", workers, je.Index)
		}
		if !strings.Contains(err.Error(), "job 2") || !strings.Contains(err.Error(), "synthetic fault") {
			t.Errorf("workers=%d: error %q should name job 2 and the panic value", workers, err)
		}
		if completed.Load() != 7 {
			t.Errorf("workers=%d: %d jobs completed after the panic, want 7", workers, completed.Load())
		}
	}
}

// TestLowestIndexErrorWins: with several failures the reported one is
// the lowest-index failure, independent of completion order.
func TestLowestIndexErrorWins(t *testing.T) {
	_, err := Map(4, 10, func(i int) (int, error) {
		if i%3 == 1 { // jobs 1, 4, 7 fail
			return 0, fmt.Errorf("fault %d", i)
		}
		return i, nil
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %T does not unwrap to *JobError", err)
	}
	if je.Index != 1 {
		t.Errorf("JobError.Index = %d, want 1 (lowest failing index)", je.Index)
	}
}

// TestDefaultWorkers pins the workers convention: 0 is the sequential
// path, like 1, and a negative width is one worker per host CPU. The
// first min(GOMAXPROCS, n) jobs of a -1 fleet wait for each other, which
// only a pool at least that wide gets past, and no more than that many
// are ever in flight.
func TestDefaultWorkers(t *testing.T) {
	var order []int
	if _, err := Map(0, 5, func(i int) (int, error) {
		order = append(order, i) // safe: 0 is the sequential path
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("Map(0) ran jobs in order %v, want ascending on the caller", order)
	}

	const n = 64
	want := min(runtime.GOMAXPROCS(0), n)
	var inflight, peak atomic.Int64
	var once sync.Once
	all := make(chan struct{})
	got, err := Map(-1, n, func(i int) (string, error) {
		c := inflight.Add(1)
		defer inflight.Add(-1)
		for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
		}
		if c == int64(want) {
			once.Do(func() { close(all) })
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			return "", fmt.Errorf("job %d: fewer than %d workers in flight", i, want)
		}
		return fmt.Sprint(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || got[n-1] != fmt.Sprint(n-1) {
		t.Errorf("results = %v", got)
	}
	if p := peak.Load(); p != int64(want) {
		t.Errorf("Map(-1) peaked at %d jobs in flight, want GOMAXPROCS %d", p, want)
	}
}

// TestEmptyFleet: zero jobs is a no-op.
func TestEmptyFleet(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return i, nil })
	if err != nil || got != nil {
		t.Errorf("Map(4, 0) = %v, %v; want nil, nil", got, err)
	}
}

// TestStatsAccounting: the process-wide occupancy counters advance by
// the fleet's job count and the busy gauge returns to its baseline.
func TestStatsAccounting(t *testing.T) {
	before := Read()
	if _, err := Map(4, 12, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	after := Read()
	if d := after.JobsTotal - before.JobsTotal; d != 12 {
		t.Errorf("JobsTotal advanced by %d, want 12", d)
	}
	if d := after.JobsDone - before.JobsDone; d != 12 {
		t.Errorf("JobsDone advanced by %d, want 12", d)
	}
	if after.BusyWorkers != before.BusyWorkers {
		t.Errorf("BusyWorkers = %d after fleet drained, want baseline %d",
			after.BusyWorkers, before.BusyWorkers)
	}
}

// TestPoolHandsEachValueToOneJob: under a fleet of concurrent jobs a
// value Put into a Pool comes out of at most one Get, an empty pool gives
// the zero value, and a held value is exclusively its holder's (the
// unsynchronized increment is what -race watches).
func TestPoolHandsEachValueToOneJob(t *testing.T) {
	type box struct{ uses, holders int }
	var pool Pool[*box]
	if pool.Get() != nil {
		t.Fatal("empty pool returned a value")
	}
	var made atomic.Int64
	const n = 400
	uses, err := Map(8, n, func(i int) (int, error) {
		b := pool.Get()
		if b == nil {
			b = new(box)
			made.Add(1)
		}
		b.holders++
		if b.holders != 1 {
			return 0, fmt.Errorf("job %d shares its value with %d others", i, b.holders-1)
		}
		runtime.Gosched()
		b.uses++
		b.holders--
		pool.Put(b)
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for b := pool.Get(); b != nil; b = pool.Get() {
		total += b.uses
	}
	if total != len(uses) || made.Load() > 8 {
		t.Fatalf("%d uses recorded over %d values, want %d uses over at most 8", total, made.Load(), n)
	}
}
