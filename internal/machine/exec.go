package machine

import (
	"fmt"

	"varsim/internal/kernel"
	"varsim/internal/mem"
	"varsim/internal/sim"
	"varsim/internal/trace"
	"varsim/internal/workload"
)

// HandleEvent dispatches one simulation event. It implements
// sim.Handler. KindNone and KindTimer are never scheduled (quantum
// ticks piggyback on CPU steps), so delivery of either means the event
// queue is corrupt — fail loudly rather than mis-simulate.
func (m *Machine) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case sim.KindCPUStep:
		m.cpus[ev.Node].stepQueued = false
		m.runCPU(ev.Node)
	case sim.KindBusGrant:
		m.handleBusGrant()
	case sim.KindMemDone:
		m.handleMemDone(ev.Node, ev.Arg)
	case sim.KindWake, sim.KindIODone:
		m.wakeThread(int32(ev.Arg))
	case sim.KindDrain:
		m.handleDrain()
	default:
		panic(fmt.Sprintf("machine: unhandled event kind %v", ev.Kind))
	}
}

// wakeThread makes a thread runnable and kicks its CPU if it was idle.
func (m *Machine) wakeThread(tid int32) {
	cpu, wasIdle := m.os.Enqueue(tid)
	m.emit(m.eng.Now(), trace.Wake, cpu, tid, 0)
	if wasIdle && !m.cpus[cpu].waitingMem {
		m.scheduleStep(cpu, m.eng.Now())
	}
}

// scheduleStep schedules a CPU step event, coalescing duplicates.
func (m *Machine) scheduleStep(cpu int32, t int64) {
	cs := &m.cpus[cpu]
	if cs.stepQueued {
		return
	}
	cs.stepQueued = true
	m.eng.ScheduleAt(t, sim.KindCPUStep, cpu, 0)
}

// handleMemDone resumes a processor whose outstanding request completed.
func (m *Machine) handleMemDone(cpu int32, token int64) {
	cs := &m.cpus[cpu]
	if cs.ooo != nil {
		m.oooMemDone(cpu, token)
		return
	}
	cs.waitingMem = false
	cs.memDone = true
	m.runCPU(cpu)
}

// spinBackoff returns the n-th spin retry delay: exponential up to ~5 us
// (test-and-set with backoff, the classic latch discipline).
func spinBackoff(n int) int64 {
	shift := uint(n - 1)
	if shift > 5 {
		shift = 5
	}
	return spinBackoffNS << shift
}

// perturbMiss returns this miss's timing perturbation: a uniform integer
// in [0, PerturbMaxNS] (§3.3). The mean offset is identical across runs;
// only the sequence differs per perturbation seed.
func (m *Machine) perturbMiss() int64 {
	if m.cfg.PerturbMaxNS <= 0 {
		return 0
	}
	return m.perturb.Int63n(m.cfg.PerturbMaxNS + 1)
}

// wakeJitter returns the OS-side perturbation (ablation knob): a uniform
// addition to every scheduler wake delivery.
func (m *Machine) wakeJitter() int64 {
	if m.cfg.PerturbWakeNS <= 0 {
		return 0
	}
	return m.perturb.Int63n(m.cfg.PerturbWakeNS + 1)
}

// wakeDelay returns the scheduler wakeup latency, optionally jittered.
func (m *Machine) wakeDelay() int64 {
	return wakeLatencyNS + m.wakeJitter()
}

// issueBus queues a coherence request and arms the bus if idle. It is
// the one way onto the bus for both cores; token comes back as the
// response's KindMemDone argument (the simple core, with one request
// outstanding, issues 0).
func (m *Machine) issueBus(cpu int32, block uint64, kind mem.AccessKind, ifetch bool, t, token int64) {
	m.bus.q = append(m.bus.q, busReq{cpu: cpu, block: block, kind: kind, issuedAt: t, ifetch: ifetch, token: token})
	m.bus.reqs++
	if !m.bus.busy {
		m.bus.busy = true
		grantAt := max(t+m.cfg.NetHopNS, m.bus.freeAt)
		m.eng.ScheduleAt(grantAt, sim.KindBusGrant, 0, 0)
	}
}

// missKind is the request a reference the node could not serve puts on
// the bus.
func missKind(write bool) mem.AccessKind {
	if write {
		return mem.GetX
	}
	return mem.GetS
}

// handleBusGrant services the head of the bus queue: it performs the
// MOSI transition at this serialization point and schedules the data
// response.
func (m *Machine) handleBusGrant() {
	now := m.eng.Now()
	req := m.bus.q[0]
	// Shift the (short) queue down instead of re-slicing past the head,
	// which would walk the slice off its backing array and make every
	// few appends reallocate.
	m.bus.q = m.bus.q[:copy(m.bus.q, m.bus.q[1:])]
	m.bus.freeAt = now + m.cfg.BusOccupancyNS
	m.busDelay.Observe(float64(now - req.issuedAt))

	res := m.snoop.Grant(int(req.cpu), req.block, req.kind)
	if req.kind == mem.PutM {
		m.dram.Access(req.block, now)
	} else {
		// Fill the requesting L1 so the retried access hits.
		node := m.snoop.Nodes[req.cpu]
		l1 := node.L1D
		if req.ifetch {
			l1 = node.L1I
		}
		l1.Fill(req.block, mem.Shared)
		var ready int64
		switch res.Source {
		case mem.NoData:
			ready = now + 1 // upgrade acknowledgement
		case mem.FromCache:
			ready = now + m.cfg.CacheSupplyNS + m.cfg.NetHopNS
		case mem.FromMemory:
			ready = m.dram.Access(req.block, now) + m.cfg.NetHopNS
		}
		ready += m.perturbMiss()
		m.eng.ScheduleAt(ready, sim.KindMemDone, req.cpu, req.token)
	}
	if res.VictimWriteback {
		m.bus.q = append(m.bus.q, busReq{cpu: req.cpu, block: res.VictimBlock, kind: mem.PutM, issuedAt: now})
		m.bus.reqs++
	}
	if len(m.bus.q) > 0 {
		next := max(now+m.cfg.BusOccupancyNS, m.bus.q[0].issuedAt+m.cfg.NetHopNS)
		m.eng.ScheduleAt(next, sim.KindBusGrant, 0, 0)
	} else {
		m.bus.busy = false
	}
}

// access performs one blocking memory reference at logical time t.
// It returns (extra latency, stalled). When stalled, a bus request
// carrying token is in flight and the CPU must wait for KindMemDone.
func (m *Machine) access(cpu int32, addr uint64, write, ifetch bool, t, token int64) (int64, bool) {
	block := addr >> m.blockBits
	node := m.snoop.Nodes[cpu]
	l1 := node.L1D
	if ifetch {
		l1 = node.L1I
	}
	switch node.Lookup(l1, block, write) {
	case mem.HitL1:
		return 0, false
	case mem.HitL2:
		return m.cfg.L2.HitNS, false
	}
	m.cpus[cpu].waitingMem = true
	m.cpus[cpu].stallIfetch = ifetch
	m.issueBus(cpu, block, missKind(write), ifetch, t, token)
	return 0, true
}

// dispatch switches cpu to the next runnable thread, charging context
// switch cost and touching the kernel's working set (cache pollution).
// It returns the thread id, or -1 if the CPU goes idle, and advances *t.
func (m *Machine) dispatch(cpu int32, t *int64) int32 {
	tid := m.os.PickNext(cpu, *t)
	if tid < 0 {
		return -1
	}
	*t += m.cfg.CtxSwitchInstrs // 1 ns per instruction on the simple core
	m.instrs += m.cfg.CtxSwitchInstrs
	m.kernelTouch(cpu, t)
	// Restore an op parked across preemption (e.g. an interrupted latch
	// spin).
	cs := &m.cpus[cpu]
	if m.parkedOk[tid] {
		m.ensureParked()
		cs.pending = m.parkedOps[tid]
		cs.hasPending = true
		cs.spins = m.parkedSpin[tid]
		m.parkedOk[tid] = false
	}
	m.os.Threads[tid].DispatchedAt = *t
	q := m.cfg.QuantumNS
	if m.cfg.PerturbQuantumNS > 0 {
		q += m.perturb.Int63n(m.cfg.PerturbQuantumNS + 1)
	}
	m.cpus[cpu].quantumDeadline = *t + q
	m.emit(*t, trace.Dispatch, cpu, tid, 0)
	// A dispatched thread restarts its instruction stream from the I-cache.
	m.cpus[cpu].lastIfetch = ^uint64(0)
	return tid
}

// kernelTouch models the scheduler's own memory footprint: a few blocks
// of the shared kernel region. L2 misses here charge the uncontended
// memory latency without arbitrating for the bus (the approximation
// keeps dispatch non-blocking).
func (m *Machine) kernelTouch(cpu int32, t *int64) {
	node := m.snoop.Nodes[cpu]
	kblocks := (workload.KernelSize >> m.blockBits)
	for i := 0; i < kernelTouches; i++ {
		m.switchSalt++
		block := (workload.KernelBase >> m.blockBits) + (m.switchSalt % kblocks)
		switch node.Lookup(node.L1D, block, false) {
		case mem.HitL2:
			*t += m.cfg.L2.HitNS
		case mem.Missed:
			m.snoop.Grant(int(cpu), block, mem.GetS)
			node.L1D.Fill(block, mem.Shared)
			*t += m.cfg.MemoryLatencyNS()
		}
	}
}

// preemptCurrent parks the running thread's op state and preempts it.
// Must not be called while the CPU waits on memory.
func (m *Machine) preemptCurrent(cpu, tid int32, t int64) {
	cs := &m.cpus[cpu]
	if cs.hasPending {
		m.ensureParked()
		m.parkedOps[tid] = cs.pending
		m.parkedSpin[tid] = cs.spins
		m.parkedOk[tid] = true
		cs.hasPending = false
		cs.spins = 0
	}
	m.emit(t, trace.Block, cpu, tid, int64(trace.ReasonPreempt))
	m.os.Preempt(cpu)
}

// fetch performs the simple core's instruction fetch for an op at pc: an
// I-cache access when pc leaves the block fetched last, its latency added
// to *t. It reports whether the access stalled the processor.
func (m *Machine) fetch(cpu int32, pc uint64, t *int64) bool {
	cs := &m.cpus[cpu]
	iblk := pc >> m.blockBits
	if iblk == cs.lastIfetch {
		return false
	}
	cs.lastIfetch = iblk
	lat, stalled := m.access(cpu, pc, false, true, *t, 0)
	*t += lat
	return stalled
}

// runPC asks the workload's bulk form, when this machine uses it, whether
// thread tid's next op belongs to a compute run, and for its PC.
func (m *Machine) runPC(tid int32) (uint64, bool) {
	if m.runs == nil {
		return 0, false
	}
	return m.runs.RunPC(int(tid))
}

// runCPU advances one processor: it executes ops from the current
// thread until it stalls on memory, blocks in the OS, or exhausts its
// batch budget. Simple blocking core (§3.2.4): IPC 1 with perfect L1,
// one outstanding miss.
func (m *Machine) runCPU(cpu int32) {
	cs := &m.cpus[cpu]
	if cs.ooo != nil {
		if !cs.waitingMem {
			m.runOOO(cpu)
		}
		return
	}
	if cs.waitingMem {
		return // stray step while stalled
	}
	t := m.eng.Now()
	tid := m.os.Current[cpu]
	if tid < 0 {
		tid = m.dispatch(cpu, &t)
		if tid < 0 {
			return // idle; a wakeup will kick us
		}
	}
	budget := int64(maxBatchInstr)
	for {
		// Quantum expiry, checked before each op (this also interrupts
		// latch spins, avoiding priority inversion against a preempted
		// holder). Any in-progress op is parked with the thread; an op
		// whose memory response just arrived completes first. Lock
		// holders are never preempted (preemption control) — preempting
		// a latch holder would convoy every waiter for a full quantum.
		if t >= cs.quantumDeadline && !cs.memDone &&
			m.os.Threads[tid].HeldLocks == 0 && m.os.RunnableOn(cpu) {
			m.preemptCurrent(cpu, tid, t)
			m.scheduleStep(cpu, t)
			return
		}
		skipAccess := false
		if cs.hasPending {
			if cs.memDone {
				// The stalled access completed with the response.
				cs.memDone = false
				skipAccess = !cs.stallIfetch
			}
		} else if pc, ok := m.runPC(tid); ok {
			// A compute run, taken in bulk: fetch as for any op, then let
			// the engine consume the run's ops up to the point where this
			// loop would next have to do something other than add to t —
			// the I-block's end, the quantum deadline (the test above
			// cannot fire before it) or the batch budget. A fetch that
			// stalls parks the one op it was for, as below.
			if m.fetch(cpu, pc, &t) {
				m.wl.NextInto(int(tid), &cs.pending)
				cs.hasPending = true
				return
			}
			n := m.runs.StepRun(int(tid), m.blockBits, min(budget, cs.quantumDeadline-t))
			t += n
			budget -= n
			m.instrs += n
			if budget <= 0 {
				m.scheduleStep(cpu, t)
				return
			}
			continue
		} else {
			m.wl.NextInto(int(tid), &cs.pending)
			cs.hasPending = true
		}
		// The op is executed where it lies: nothing below writes pending
		// while op is read (osOp takes its copy).
		op := &cs.pending

		if op.PC != 0 && m.fetch(cpu, op.PC, &t) {
			return
		}

		switch op.Kind {
		case workload.OpCompute:
			t += op.N
			budget -= op.N
			m.instrs += op.N
			cs.hasPending = false

		case workload.OpBranch, workload.OpCall, workload.OpRet:
			// The simple core resolves branches in one cycle.
			t++
			budget--
			m.instrs++
			cs.hasPending = false

		case workload.OpLoad, workload.OpStore:
			var lat int64
			if !skipAccess {
				var stalled bool
				lat, stalled = m.access(cpu, op.Addr, op.Kind == workload.OpStore, false, t, 0)
				if stalled {
					return
				}
			}
			t += lat + 1
			budget -= 1 + lat/4 // memory stalls consume batch budget too
			m.instrs++
			cs.hasPending = false

		case workload.OpLockAcq, workload.OpLockRel:
			if !skipAccess {
				lat, stalled := m.access(cpu, op.Addr, true, false, t, 0)
				if stalled {
					return
				}
				t += lat
			}
			fallthrough

		case workload.OpIO, workload.OpBarrier, workload.OpTxnEnd, workload.OpYield, workload.OpDone:
			var running bool
			if t, running = m.osOp(cpu, tid, *op, t); !running {
				return
			}
		}

		if budget <= 0 {
			m.scheduleStep(cpu, t)
			return
		}
	}
}

// osOp executes an OS-visible op — lock acquire and release (after the
// lock word's access), I/O, barrier, transaction end, yield, done — for
// either core model at the core's time t. It returns the time after the
// op and whether the thread keeps the CPU; when it does not, the next
// step is already scheduled and the core must return.
func (m *Machine) osOp(cpu, tid int32, op workload.Op, t int64) (int64, bool) {
	cs := &m.cpus[cpu]
	cs.hasPending = false
	switch op.Kind {
	case workload.OpLockAcq:
		t++
		m.instrs++
		if m.os.TryAcquire(op.ID, tid) {
			cs.spins = 0
			t += lockPathNS
			m.emit(t, trace.LockAcquire, cpu, tid, int64(op.ID))
			return t, true
		}
		m.emit(t, trace.LockContended, cpu, tid, int64(op.ID))
		if op.ID < m.spinLocks || cs.spins < maxSpins {
			// Spin: re-attempt after a backoff; each retry
			// re-arbitrates for the lock word through the coherence
			// protocol. Spin latches never block and back off
			// exponentially; mutexes fall through to blocking.
			cs.hasPending = true // the acquire is retried
			cs.spins++
			m.scheduleStep(cpu, t+spinBackoff(cs.spins))
			return t, false
		}
		// Give up and block; handoff will make us the holder.
		cs.spins = 0
		m.emit(t, trace.Block, cpu, tid, int64(trace.ReasonLock))
		m.os.AddWaiter(op.ID, tid)
		m.os.BlockCurrent(cpu, kernel.BlockedLock)

	case workload.OpLockRel:
		t += 1 + lockPathNS
		m.instrs++
		m.emit(t, trace.LockRelease, cpu, tid, int64(op.ID))
		if next := m.os.Release(op.ID, tid); next >= 0 {
			// Direct handoff: ownership transfers at release time.
			m.emit(t, trace.LockAcquire, -1, next, int64(op.ID))
			m.eng.ScheduleAt(t+m.wakeDelay(), sim.KindWake, -1, int64(next))
		}
		return t, true

	case workload.OpIO:
		doneAt := t + op.N // pure think time
		if op.ID >= 0 {
			doneAt = m.disks.Submit(int(op.ID), t, op.N)
		}
		m.eng.ScheduleAt(doneAt+m.wakeJitter(), sim.KindIODone, -1, int64(tid))
		m.emit(t, trace.Block, cpu, tid, int64(trace.ReasonIO))
		m.os.BlockCurrent(cpu, kernel.BlockedIO)

	case workload.OpBarrier:
		wake, last := m.os.BarrierArrive(op.ID, tid)
		if last {
			for _, w := range wake {
				m.eng.ScheduleAt(t+m.wakeDelay(), sim.KindWake, -1, int64(w))
			}
			return t + lockPathNS, true
		}
		m.emit(t, trace.Block, cpu, tid, int64(trace.ReasonBarrier))
		m.os.BlockCurrent(cpu, kernel.BlockedBarrier)

	case workload.OpTxnEnd:
		m.txnsDone++
		m.lastTxnNS = t
		m.emit(t, trace.TxnEnd, cpu, tid, int64(op.ID))
		return t + 1, true

	case workload.OpYield:
		m.emit(t, trace.Block, cpu, tid, int64(trace.ReasonPreempt))
		m.os.Preempt(cpu)

	case workload.OpDone:
		m.emit(t, trace.Block, cpu, tid, int64(trace.ReasonDone))
		m.os.FinishCurrent(cpu)

	default:
		panic(fmt.Sprintf("machine: osOp on op kind %d", op.Kind))
	}
	m.scheduleStep(cpu, t)
	return t, false
}
