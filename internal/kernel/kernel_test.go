package kernel

import (
	"testing"
	"testing/quick"

	"varsim/internal/rng"
)

func TestNewDistribution(t *testing.T) {
	os := New(4, 10, 2, 1, 10)
	if os.NumCPUs() != 4 {
		t.Fatal("cpu count")
	}
	total := 0
	for _, q := range os.RunQ {
		total += len(q)
	}
	if total != 10 {
		t.Fatalf("threads in queues = %d, want 10", total)
	}
	if len(os.RunQ[0]) != 3 || len(os.RunQ[3]) != 2 {
		t.Fatalf("round-robin distribution wrong: %v", os.RunQ)
	}
}

func TestPickAndBlock(t *testing.T) {
	os := New(2, 4, 0, 0, 0)
	tid := os.PickNext(0, 100)
	if tid != 0 {
		t.Fatalf("picked %d, want 0", tid)
	}
	if os.Threads[0].State != Running || os.Threads[0].DispatchedAt != 100 {
		t.Fatal("dispatch bookkeeping wrong")
	}
	blocked := os.BlockCurrent(0, BlockedIO)
	if blocked != 0 || os.Threads[0].State != BlockedIO || os.Current[0] != -1 {
		t.Fatal("block bookkeeping wrong")
	}
}

func TestEnqueueAffinityAndIdleKick(t *testing.T) {
	os := New(2, 2, 0, 0, 0)
	os.PickNext(0, 0)
	os.PickNext(1, 0)
	os.BlockCurrent(0, BlockedIO)
	cpu, idle := os.Enqueue(0)
	if cpu != 0 || !idle {
		t.Fatalf("expected wake on idle affinity cpu, got cpu=%d idle=%v", cpu, idle)
	}
}

func TestEnqueueMigratesToIdle(t *testing.T) {
	os := New(2, 3, 0, 0, 0)
	// CPU0 runs thread 0 (queue holds thread 2); CPU1 runs thread 1.
	os.PickNext(0, 0)
	os.PickNext(1, 0)
	os.BlockCurrent(1, BlockedIO) // CPU1 idle
	// Thread 2 has affinity 0, but CPU0 is busy; should migrate to CPU1.
	// First remove it from CPU0's queue by simulating a wakeup path:
	os.RunQ[0] = nil
	os.Threads[2].State = BlockedIO
	cpu, idle := os.Enqueue(2)
	if cpu != 1 || !idle {
		t.Fatalf("expected migration to idle cpu1, got cpu=%d idle=%v", cpu, idle)
	}
	if os.Threads[2].Migrations != 1 {
		t.Fatal("migration not counted")
	}
}

func TestWorkStealing(t *testing.T) {
	os := New(2, 4, 0, 0, 0)
	// Put all threads on CPU0's queue.
	os.RunQ[0] = []int32{0, 1, 2, 3}
	os.RunQ[1] = nil
	tid := os.PickNext(1, 0)
	if tid != 0 {
		t.Fatalf("steal picked %d, want head of longest queue", tid)
	}
	if os.Steals != 1 || os.Threads[0].Migrations != 1 {
		t.Fatal("steal bookkeeping wrong")
	}
}

func TestPreempt(t *testing.T) {
	os := New(1, 2, 0, 0, 0)
	os.PickNext(0, 0)
	os.Preempt(0)
	if os.Threads[0].State != Ready || os.Current[0] != -1 {
		t.Fatal("preempt state wrong")
	}
	if os.RunQ[0][len(os.RunQ[0])-1] != 0 {
		t.Fatal("preempted thread should go to queue back")
	}
	next := os.PickNext(0, 10)
	if next != 1 {
		t.Fatalf("after preempt picked %d, want 1", next)
	}
}

func TestLockHandoff(t *testing.T) {
	os := New(1, 3, 1, 0, 0)
	if !os.TryAcquire(0, 0) {
		t.Fatal("free lock refused")
	}
	if os.TryAcquire(0, 1) {
		t.Fatal("held lock granted")
	}
	os.AddWaiter(0, 1)
	os.AddWaiter(0, 2)
	next := os.Release(0, 0)
	if next != 1 || os.Locks[0].Holder != 1 {
		t.Fatalf("handoff to %d holder=%d, want 1", next, os.Locks[0].Holder)
	}
	next = os.Release(0, 1)
	if next != 2 {
		t.Fatal("second handoff wrong")
	}
	next = os.Release(0, 2)
	if next != -1 || os.Locks[0].Holder != -1 {
		t.Fatal("final release should free the lock")
	}
	if os.Locks[0].Acquisitions != 3 || os.Locks[0].Contentions != 2 {
		t.Fatalf("lock counters %+v", os.Locks[0])
	}
}

func TestReleaseByNonHolderPanics(t *testing.T) {
	os := New(1, 2, 1, 0, 0)
	os.TryAcquire(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	os.Release(0, 1)
}

func TestBarrier(t *testing.T) {
	os := New(4, 4, 0, 1, 4)
	for i := int32(0); i < 3; i++ {
		wake, last := os.BarrierArrive(0, i)
		if last || wake != nil {
			t.Fatalf("early arrival %d released barrier", i)
		}
	}
	wake, last := os.BarrierArrive(0, 3)
	if !last || len(wake) != 3 {
		t.Fatalf("last arrival: last=%v wake=%v", last, wake)
	}
	// Reusable: next round works.
	if _, last := os.BarrierArrive(0, 0); last {
		t.Fatal("barrier did not reset")
	}
}

func TestFinishCurrentAndAllDone(t *testing.T) {
	os := New(1, 2, 0, 0, 0)
	os.PickNext(0, 0)
	os.FinishCurrent(0)
	if os.AllDone() {
		t.Fatal("not all done yet")
	}
	os.PickNext(0, 0)
	os.FinishCurrent(0)
	if !os.AllDone() {
		t.Fatal("all threads done but AllDone false")
	}
}

func TestCloneIsolation(t *testing.T) {
	os := New(2, 4, 2, 1, 4)
	os.PickNext(0, 0)
	os.TryAcquire(0, 0)
	os.AddWaiter(0, 1)
	cp := os.CloneOver(nil)
	cp.Release(0, 0)
	cp.PickNext(1, 5)
	if os.Locks[0].Holder != 0 {
		t.Fatal("clone lock mutation leaked")
	}
	if os.Current[1] != -1 {
		t.Fatal("clone dispatch leaked")
	}
}

// Property: under random scheduler operations, every thread is in exactly
// one place (running on one CPU, queued once, blocked, or done).
func TestSchedulerConservation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		os := New(3, 8, 2, 0, 0)
		for step := 0; step < 300; step++ {
			cpu := int32(r.Intn(3))
			switch r.Intn(4) {
			case 0:
				if os.Current[cpu] == -1 {
					os.PickNext(cpu, int64(step))
				}
			case 1:
				if os.Current[cpu] != -1 {
					os.Preempt(cpu)
				}
			case 2:
				if os.Current[cpu] != -1 {
					os.BlockCurrent(cpu, BlockedIO)
				}
			case 3:
				// Wake a random blocked thread.
				for i := range os.Threads {
					if os.Threads[i].State == BlockedIO {
						os.Enqueue(int32(i))
						break
					}
				}
			}
			if !conserved(os) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func conserved(os *OS) bool {
	count := make(map[int32]int)
	for _, c := range os.Current {
		if c >= 0 {
			count[c]++
		}
	}
	for _, q := range os.RunQ {
		for _, tid := range q {
			count[tid]++
		}
	}
	for i := range os.Threads {
		tid := int32(i)
		st := os.Threads[i].State
		switch st {
		case Running:
			if count[tid] != 1 {
				return false
			}
		case Ready:
			if count[tid] != 1 {
				return false
			}
		default:
			if count[tid] != 0 {
				return false
			}
		}
	}
	return true
}

func TestThreadStateString(t *testing.T) {
	for s := Ready; s <= Done; s++ {
		if s.String() == "invalid" {
			t.Errorf("state %d unnamed", s)
		}
	}
}

func TestHeldLocksTracking(t *testing.T) {
	os := New(1, 3, 2, 0, 0)
	os.TryAcquire(0, 0)
	os.TryAcquire(1, 0)
	if os.Threads[0].HeldLocks != 2 {
		t.Fatalf("HeldLocks = %d, want 2", os.Threads[0].HeldLocks)
	}
	os.AddWaiter(0, 1)
	if next := os.Release(0, 0); next != 1 {
		t.Fatal("handoff wrong")
	}
	if os.Threads[0].HeldLocks != 1 || os.Threads[1].HeldLocks != 1 {
		t.Fatalf("post-handoff counts: %d, %d", os.Threads[0].HeldLocks, os.Threads[1].HeldLocks)
	}
	os.Release(1, 0)
	os.Release(0, 1)
	if os.Threads[0].HeldLocks != 0 || os.Threads[1].HeldLocks != 0 {
		t.Fatal("counts did not return to zero")
	}
}

// churn drives os through random scheduler, lock and barrier operations,
// leaving threads running, queued, holding locks and waiting on both.
func churn(os *OS, r *rng.Stream, steps int) {
	for s := 0; s < steps; s++ {
		cpu := int32(r.Intn(os.NumCPUs()))
		tid := os.Current[cpu]
		if tid < 0 {
			os.PickNext(cpu, int64(s))
			continue
		}
		switch r.Intn(4) {
		case 0:
			os.Preempt(cpu)
		case 1:
			id := int32(r.Intn(len(os.Locks)))
			if !os.TryAcquire(id, tid) {
				os.AddWaiter(id, tid)
				os.BlockCurrent(cpu, BlockedLock)
			}
		case 2:
			for id := range os.Locks {
				if os.Locks[id].Holder == tid {
					if next := os.Release(int32(id), tid); next >= 0 {
						os.Enqueue(next)
					}
					break
				}
			}
		case 3:
			if wake, last := os.BarrierArrive(0, tid); last {
				for _, w := range wake {
					os.Enqueue(w)
				}
			} else {
				os.BlockCurrent(cpu, BlockedBarrier)
			}
		}
	}
}

// TestCloneOverSpentIsFresh: built over a spent OS of any size and state
// — its queues, wait lists and barrier arrivals full of other threads —
// CloneOver gives the OS CloneOver(nil) does, and the two then evolve
// identically and apart from the original: nothing of spent but capacity
// is read.
func TestCloneOverSpentIsFresh(t *testing.T) {
	r := rng.New(0xC10E)
	var spent *OS
	for trial := 0; trial < 200; trial++ {
		cpus, threads := 1+r.Intn(6), 1+r.Intn(12)
		os := New(cpus, threads, 1+r.Intn(4), 1, threads)
		churn(os, &r, r.Intn(200))
		want := os.CloneOver(nil)
		got := os.CloneOver(spent)
		if spent != nil && got != spent {
			t.Fatalf("trial %d: CloneOver did not build in spent's storage", trial)
		}
		before := osDigest(os)
		if osDigest(got) != osDigest(want) {
			t.Fatalf("trial %d: CloneOver over a spent OS differs from a fresh clone", trial)
		}
		seed := r.Uint64()
		a, b := rng.New(seed), rng.New(seed)
		churn(want, &a, 100)
		churn(got, &b, 100)
		if osDigest(got) != osDigest(want) {
			t.Fatalf("trial %d: the clone over a spent OS evolved apart from the fresh one", trial)
		}
		if osDigest(os) != before {
			t.Fatalf("trial %d: running the clone changed the original", trial)
		}
		spent = got
	}
}
