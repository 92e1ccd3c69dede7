// Package kernel models the operating system the workloads run under:
// kernel threads, per-CPU dispatch queues with affinity and work
// stealing, scheduling quanta, blocking locks with direct handoff, and
// barriers.
//
// The paper (§2.1) identifies OS scheduling decisions and lock
// acquisition order as primary sources of space variability: "a
// scheduling quantum may end before an event in one run, but not
// another"; "locks may be acquired in different orders". This package
// makes exactly those decisions, deterministically as a function of the
// request order it observes — so timing perturbations upstream translate
// into different schedules, as in a real system.
package kernel

import "fmt"

// ThreadState is the scheduling state of a thread.
type ThreadState uint8

const (
	Ready ThreadState = iota
	Running
	BlockedLock
	BlockedIO
	BlockedBarrier
	Done
)

func (s ThreadState) String() string {
	names := [...]string{"ready", "running", "blocked-lock", "blocked-io", "blocked-barrier", "done"}
	if int(s) < len(names) {
		return names[s]
	}
	return "invalid"
}

// Thread is one kernel thread.
type Thread struct {
	ID           int32
	State        ThreadState
	CPU          int32 // current or last CPU (affinity hint)
	DispatchedAt int64 // simulated time of last dispatch
	// HeldLocks counts locks currently held; the scheduler defers
	// quantum preemption while it is non-zero (Solaris schedctl-style
	// preemption control, avoiding latch-holder convoys).
	HeldLocks  int32
	Switches   uint64
	Migrations uint64
}

// Lock is a blocking mutex with direct handoff: on release, ownership
// passes to the head of the wait queue (FIFO), so acquisition order is
// exactly arrival order — which is timing dependent.
type Lock struct {
	Holder       int32 // -1 when free
	Waiters      []int32
	Acquisitions uint64
	Contentions  uint64
}

// Barrier blocks arrivals until Total threads have arrived, then releases
// everyone and resets for reuse.
type Barrier struct {
	Total   int
	Arrived int
	Waiters []int32
}

// OS is the full operating-system state.
type OS struct {
	Threads  []Thread
	Current  []int32   // per-CPU running thread, -1 = idle
	RunQ     [][]int32 // per-CPU FIFO dispatch queues
	Locks    []Lock
	Barriers []Barrier

	DoneCount int
	Preempts  uint64
	Steals    uint64
}

// New builds an OS with numThreads threads distributed round-robin over
// numCPUs ready queues, all Ready.
func New(numCPUs, numThreads, numLocks, numBarriers, barrierTotal int) *OS {
	if numCPUs <= 0 || numThreads <= 0 {
		panic(fmt.Sprintf("kernel: bad sizes cpus=%d threads=%d", numCPUs, numThreads))
	}
	os := &OS{
		Threads:  make([]Thread, numThreads),
		Current:  make([]int32, numCPUs),
		RunQ:     make([][]int32, numCPUs),
		Locks:    make([]Lock, numLocks),
		Barriers: make([]Barrier, numBarriers),
	}
	for i := range os.Current {
		os.Current[i] = -1
	}
	for i := range os.Locks {
		os.Locks[i].Holder = -1
	}
	for i := range os.Barriers {
		os.Barriers[i].Total = barrierTotal
	}
	for i := range os.Threads {
		cpu := int32(i % numCPUs)
		os.Threads[i] = Thread{ID: int32(i), State: Ready, CPU: cpu}
		os.RunQ[cpu] = append(os.RunQ[cpu], int32(i))
	}
	return os
}

// NumCPUs returns the processor count.
func (os *OS) NumCPUs() int { return len(os.Current) }

// AllDone reports whether every thread has terminated.
func (os *OS) AllDone() bool { return os.DoneCount == len(os.Threads) }

// Enqueue makes thread tid runnable and places it on a dispatch queue:
// its affinity CPU if that CPU is idle or lightly loaded, otherwise the
// first idle CPU (migration), otherwise the affinity queue. It returns
// the chosen CPU and whether that CPU was idle (the caller must kick it).
func (os *OS) Enqueue(tid int32) (cpu int32, wasIdle bool) {
	th := &os.Threads[tid]
	th.State = Ready
	pref := th.CPU
	if os.Current[pref] == -1 && len(os.RunQ[pref]) == 0 {
		os.RunQ[pref] = append(os.RunQ[pref], tid)
		return pref, true
	}
	// Look for an idle CPU, scanning deterministically from pref+1.
	n := int32(os.NumCPUs())
	for d := int32(1); d < n; d++ {
		c := (pref + d) % n
		if os.Current[c] == -1 && len(os.RunQ[c]) == 0 {
			th.Migrations++
			th.CPU = c
			os.RunQ[c] = append(os.RunQ[c], tid)
			return c, true
		}
	}
	os.RunQ[pref] = append(os.RunQ[pref], tid)
	return pref, false
}

// PickNext selects the next thread to run on cpu: the head of its own
// queue, or a thread stolen from the longest remote queue (length >= 2).
// It marks the thread Running and returns it, or -1 if nothing is
// runnable. The caller charges context-switch and migration costs.
func (os *OS) PickNext(cpu int32, now int64) int32 {
	var tid int32 = -1
	if len(os.RunQ[cpu]) > 0 {
		tid = os.RunQ[cpu][0]
		os.RunQ[cpu] = os.RunQ[cpu][1:]
	} else {
		// Work stealing: deterministic scan for the longest queue.
		best, bestLen := int32(-1), 1
		n := int32(os.NumCPUs())
		for d := int32(1); d < n; d++ {
			c := (cpu + d) % n
			if len(os.RunQ[c]) > bestLen {
				best, bestLen = c, len(os.RunQ[c])
			}
		}
		if best >= 0 {
			tid = os.RunQ[best][0]
			os.RunQ[best] = os.RunQ[best][1:]
			os.Steals++
			os.Threads[tid].Migrations++
		}
	}
	if tid < 0 {
		os.Current[cpu] = -1
		return -1
	}
	th := &os.Threads[tid]
	th.State = Running
	th.CPU = cpu
	th.DispatchedAt = now
	th.Switches++
	os.Current[cpu] = tid
	return tid
}

// Preempt moves cpu's running thread to the back of its queue (quantum
// expiry). The caller should PickNext afterwards.
func (os *OS) Preempt(cpu int32) {
	tid := os.Current[cpu]
	if tid < 0 {
		return
	}
	os.Threads[tid].State = Ready
	os.RunQ[cpu] = append(os.RunQ[cpu], tid)
	os.Current[cpu] = -1
	os.Preempts++
}

// BlockCurrent removes cpu's running thread with the given blocked state.
func (os *OS) BlockCurrent(cpu int32, st ThreadState) int32 {
	tid := os.Current[cpu]
	if tid < 0 {
		return -1
	}
	os.Threads[tid].State = st
	os.Current[cpu] = -1
	return tid
}

// FinishCurrent terminates cpu's running thread.
func (os *OS) FinishCurrent(cpu int32) {
	tid := os.Current[cpu]
	if tid < 0 {
		return
	}
	os.Threads[tid].State = Done
	os.Current[cpu] = -1
	os.DoneCount++
}

// TryAcquire attempts to take lock id for tid. It returns true on
// success.
func (os *OS) TryAcquire(id, tid int32) bool {
	l := &os.Locks[id]
	if l.Holder == -1 {
		l.Holder = tid
		l.Acquisitions++
		os.Threads[tid].HeldLocks++
		return true
	}
	return false
}

// AddWaiter appends tid to the lock's FIFO wait queue.
func (os *OS) AddWaiter(id, tid int32) {
	l := &os.Locks[id]
	l.Waiters = append(l.Waiters, tid)
	l.Contentions++
}

// Release frees lock id held by tid. With direct handoff, the head
// waiter (if any) becomes the holder and is returned so the caller can
// wake it; otherwise -1.
func (os *OS) Release(id, tid int32) int32 {
	l := &os.Locks[id]
	if l.Holder != tid {
		panic(fmt.Sprintf("kernel: release of lock %d by non-holder %d (holder %d)", id, tid, l.Holder))
	}
	os.Threads[tid].HeldLocks--
	if len(l.Waiters) == 0 {
		l.Holder = -1
		return -1
	}
	next := l.Waiters[0]
	l.Waiters = l.Waiters[1:]
	l.Holder = next
	l.Acquisitions++
	os.Threads[next].HeldLocks++
	return next
}

// BarrierArrive records tid's arrival at barrier id. When the last
// participant arrives the barrier resets and the blocked waiters are
// returned for wakeup (the last arriver itself is not in the list and
// should continue).
func (os *OS) BarrierArrive(id, tid int32) (wake []int32, last bool) {
	b := &os.Barriers[id]
	b.Arrived++
	if b.Arrived < b.Total {
		b.Waiters = append(b.Waiters, tid)
		return nil, false
	}
	wake = b.Waiters
	b.Waiters = nil
	b.Arrived = 0
	return wake, true
}

// RunnableOn reports whether cpu has anything to run (used to decide
// quantum preemption: no point preempting onto an empty queue).
func (os *OS) RunnableOn(cpu int32) bool { return len(os.RunQ[cpu]) > 0 }

// CtxSwitches returns the dispatches of every thread: what a machine's
// Result and its interval series count.
func (os *OS) CtxSwitches() (n uint64) {
	for i := range os.Threads {
		n += os.Threads[i].Switches
	}
	return n
}

// LockCounts returns the acquires and the contended acquires of every
// lock, in one pass: what a machine's Result and its interval series
// count.
func (os *OS) LockCounts() (acquisitions, contentions uint64) {
	for i := range os.Locks {
		acquisitions += os.Locks[i].Acquisitions
		contentions += os.Locks[i].Contentions
	}
	return acquisitions, contentions
}

// CloneOver deep-copies the OS state, into the storage of spent, an OS
// nothing will use again (nil for none): every slice, the queues and
// wait lists included, is copied into spent's when its capacity fits and
// allocated when it does not. Nothing of spent but capacity is read, so it may
// come from a machine of any size. spent is the OS returned.
func (os *OS) CloneOver(spent *OS) *OS {
	cp := spent
	if cp == nil {
		cp = new(OS)
	}
	threads, current := cp.Threads[:0], cp.Current[:0]
	runQ, locks, barriers := resize(cp.RunQ, len(os.RunQ)), resize(cp.Locks, len(os.Locks)), resize(cp.Barriers, len(os.Barriers))
	*cp = *os
	cp.Threads = append(threads, os.Threads...)
	cp.Current = append(current, os.Current...)
	for i, q := range os.RunQ {
		runQ[i] = append(runQ[i][:0], q...)
	}
	for i, l := range os.Locks {
		l.Waiters = append(locks[i].Waiters[:0], l.Waiters...)
		locks[i] = l
	}
	for i, b := range os.Barriers {
		b.Waiters = append(barriers[i].Waiters[:0], b.Waiters...)
		barriers[i] = b
	}
	cp.RunQ, cp.Locks, cp.Barriers = runQ, locks, barriers
	return cp
}

// resize returns s at length n, in its own array when that holds n
// elements — whose old contents the caller overwrites — else in a new
// one.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
