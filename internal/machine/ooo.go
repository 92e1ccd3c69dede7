package machine

import (
	"varsim/internal/bpred"
	"varsim/internal/config"
	"varsim/internal/mem"
	"varsim/internal/workload"
)

// oooWait encodes why the detailed core is not dispatching.
type oooWait uint8

const (
	oooRunning oooWait = iota
	oooWaitROB         // window full behind an unresolved oldest miss
	oooWaitMSHR
	oooWaitDrain  // serializing: waiting for all misses before an OS op
	oooWaitIfetch // front-end stalled on an instruction miss
)

// oooMiss is one outstanding (or resolved but unretired) cache miss in
// program order.
type oooMiss struct {
	token       int64
	dispatchIdx int64
	doneAt      int64
	resolved    bool
}

// oooCore is the TFsim-like detailed processor model (§3.2.4): a 4-wide
// out-of-order core whose reorder buffer bounds how far dispatch may run
// ahead of an unresolved miss — the mechanism that makes ROB size
// (Experiment 2's variable) matter. Memory-level parallelism emerges:
// misses dispatched within one ROB window overlap.
type oooCore struct {
	cfg config.OOOConfig
	bp  *bpred.Unit

	vt       int64 // virtual dispatch time cursor (ns); never behind eng.Now()
	frac     int64 // sub-cycle instruction accumulator (vt advances frac/Width)
	instrIdx int64 // cumulative dispatched instructions

	misses     []oooMiss
	unresolved int
	waiting    oooWait
	nextToken  int64

	ifetchToken int64 // outstanding instruction-miss token (when oooWaitIfetch)
	retStack    []uint64

	MispredictStalls uint64
	ROBStalls        uint64
	MSHRStalls       uint64
}

func newOOOCore(cfg config.OOOConfig) *oooCore {
	return &oooCore{cfg: cfg, bp: bpred.New(cfg)}
}

// cloneOver copies the core into spent, a core nothing will use again
// (nil for none), keeping the capacity of its miss window and return
// stack and its predictor's struct; spent is the core returned.
func (c *oooCore) cloneOver(spent *oooCore) *oooCore {
	cp := spent
	if cp == nil {
		cp = new(oooCore)
	}
	bp, misses, retStack := cp.bp, cp.misses[:0], cp.retStack[:0]
	*cp = *c
	cp.bp = c.bp.CloneOver(bp)
	cp.misses = append(misses, c.misses...)
	cp.retStack = append(retStack, c.retStack...)
	return cp
}

// addInstr advances the dispatch cursor by n instructions at full width.
// frac stays below Width, so the common small step that does not fill a
// dispatch group divides nothing, and one that fills exactly one group
// subtracts; only a compute block spanning several groups divides, once.
func (c *oooCore) addInstr(n int64) {
	c.instrIdx += n
	w := int64(c.cfg.Width)
	f := c.frac + n
	if f >= 2*w {
		q := f / w
		c.vt += q
		f -= q * w
	} else if f >= w {
		c.vt++
		f -= w
	}
	c.frac = f
}

// popRetired retires resolved misses from the window head. The (short)
// window is shifted down in place, as the bus queue is: re-slicing past
// the head would walk it off its backing array and make every few
// appends in oooAccess reallocate.
func (c *oooCore) popRetired() {
	n := 0
	for n < len(c.misses) && c.misses[n].resolved {
		n++
	}
	if n > 0 {
		c.misses = c.misses[:copy(c.misses, c.misses[n:])]
	}
}

// robFull reports whether dispatch has run a full reorder buffer ahead of
// the oldest unresolved miss.
func (c *oooCore) robFull() bool {
	return len(c.misses) > 0 && !c.misses[0].resolved &&
		c.instrIdx-c.misses[0].dispatchIdx >= int64(c.cfg.ROBEntries)
}

// oooAccess performs a data reference for the detailed core at virtual
// time vt. Hits are pipelined; L2 hits cost a partial bubble; misses are
// issued to the bus and tracked for overlap. It returns false when the
// core must stall (ROB or MSHR limits).
func (m *Machine) oooAccess(cpu int32, core *oooCore, addr uint64, write bool) (ok bool) {
	block := addr >> m.blockBits
	node := m.snoop.Nodes[cpu]
	core.addInstr(1)
	m.instrs++
	switch node.Lookup(node.L1D, block, write) {
	case mem.HitL1:
		return true
	case mem.HitL2:
		// Partially hidden by the window.
		core.vt += m.cfg.L2.HitNS / 4
		return true
	}
	// Miss (or write-permission miss): issue and track.
	tok := core.nextToken
	core.nextToken++
	m.issueBus(cpu, block, missKind(write), false, core.vt, tok)
	core.misses = append(core.misses, oooMiss{token: tok, dispatchIdx: core.instrIdx})
	core.unresolved++
	if core.unresolved >= core.cfg.MSHRs {
		core.waiting = oooWaitMSHR
		core.MSHRStalls++
		return false
	}
	if core.robFull() {
		core.waiting = oooWaitROB
		core.ROBStalls++
		return false
	}
	return true
}

// oooMemDone handles a memory response for the detailed core.
func (m *Machine) oooMemDone(cpu int32, token int64) {
	core := m.cpus[cpu].ooo
	now := m.eng.Now()
	if core.waiting == oooWaitIfetch && token == core.ifetchToken {
		core.waiting = oooRunning
		if m.cpus[cpu].waitingMem {
			// A serializing access (lock word) stalled: it completes with
			// this response; do not re-probe (forward-progress guarantee).
			m.cpus[cpu].waitingMem = false
			m.cpus[cpu].memDone = true
		}
		if core.vt < now {
			core.vt = now
		}
		m.runOOO(cpu)
		return
	}
	for i := range core.misses {
		if core.misses[i].token == token && !core.misses[i].resolved {
			core.misses[i].resolved = true
			core.misses[i].doneAt = now
			core.unresolved--
			break
		}
	}
	core.popRetired()
	switch core.waiting {
	case oooWaitROB:
		if !core.robFull() {
			core.resume(now)
			m.runOOO(cpu)
		}
	case oooWaitMSHR:
		if core.unresolved < core.cfg.MSHRs {
			core.resume(now)
			m.runOOO(cpu)
		}
	case oooWaitDrain:
		if core.unresolved == 0 {
			core.misses = core.misses[:0]
			core.resume(now)
			m.runOOO(cpu)
		}
	}
}

// resume lifts the dispatch cursor to the resume point: stall time is
// real time.
func (c *oooCore) resume(now int64) {
	c.waiting = oooRunning
	if c.vt < now {
		c.vt = now
	}
}

// oooDrainThen prepares to execute a serializing operation: if misses
// are outstanding the core waits for them first. Returns true when the
// caller may proceed now.
func (c *oooCore) drainReady() bool {
	c.popRetired()
	if c.unresolved > 0 {
		c.waiting = oooWaitDrain
		return false
	}
	if len(c.misses) > 0 {
		// All resolved: retire them, honoring the latest arrival.
		for _, ms := range c.misses {
			if ms.doneAt > c.vt {
				c.vt = ms.doneAt
			}
		}
		c.misses = c.misses[:0]
	}
	return true
}

// runOOO advances one detailed processor. Structure parallels runCPU;
// the differences are wide dispatch, overlapping misses, and branch
// prediction.
func (m *Machine) runOOO(cpu int32) {
	cs := &m.cpus[cpu]
	core := cs.ooo
	if core.waiting != oooRunning {
		return
	}
	now := m.eng.Now()
	if core.vt < now {
		core.vt = now
	}
	tid := m.os.Current[cpu]
	if tid < 0 {
		t := core.vt
		tid = m.dispatch(cpu, &t)
		if tid < 0 {
			return
		}
		core.vt = t
	}
	budget := int64(maxBatchInstr)
	depth := int64(core.cfg.PipelineDepth)
	for {
		// Quantum expiry between ops (never with misses in flight, never
		// for lock holders; an op whose response just arrived completes
		// first).
		if core.vt >= cs.quantumDeadline && len(core.misses) == 0 &&
			!cs.memDone && m.os.Threads[tid].HeldLocks == 0 && m.os.RunnableOn(cpu) {
			m.preemptCurrent(cpu, tid, core.vt)
			m.scheduleStep(cpu, core.vt)
			return
		}
		if !cs.hasPending {
			m.wl.NextInto(int(tid), &cs.pending)
			cs.hasPending = true
		}
		op := &cs.pending // executed where it lies, as in runCPU

		// Instruction fetch through the L1I.
		if op.PC != 0 {
			if iblk := op.PC >> m.blockBits; iblk != cs.lastIfetch {
				cs.lastIfetch = iblk
				node := m.snoop.Nodes[cpu]
				switch node.Lookup(node.L1I, iblk, false) {
				case mem.HitL2:
					core.vt += m.cfg.L2.HitNS / 2
				case mem.Missed:
					core.ifetchToken = core.nextToken
					core.nextToken++
					core.waiting = oooWaitIfetch
					m.issueBus(cpu, iblk, mem.GetS, true, core.vt, core.ifetchToken)
					return
				}
			}
		}

		switch op.Kind {
		case workload.OpCompute:
			core.addInstr(op.N)
			m.instrs += op.N
			budget -= op.N
			cs.hasPending = false
			if core.robFull() {
				core.waiting = oooWaitROB
				core.ROBStalls++
				return
			}

		case workload.OpBranch:
			budget--
			core.addInstr(1)
			m.instrs++
			cs.hasPending = false
			var correct bool
			if op.Indirect {
				correct = core.bp.PredictIndirect(op.Site, op.Addr)
			} else {
				correct = core.bp.PredictCond(op.Site, op.Taken)
			}
			if !correct {
				core.vt += depth
				core.MispredictStalls++
			}

		case workload.OpCall:
			core.addInstr(1)
			m.instrs++
			budget--
			cs.hasPending = false
			ret := op.PC + 4
			core.bp.Call(ret)
			if len(core.retStack) < 256 {
				core.retStack = append(core.retStack, ret)
			}

		case workload.OpRet:
			core.addInstr(1)
			m.instrs++
			budget--
			cs.hasPending = false
			var expect uint64
			if n := len(core.retStack); n > 0 {
				expect = core.retStack[n-1]
				core.retStack = core.retStack[:n-1]
			}
			if !core.bp.Ret(expect) {
				core.vt += depth
			}

		case workload.OpLoad, workload.OpStore:
			budget--
			ok := m.oooAccess(cpu, core, op.Addr, op.Kind == workload.OpStore)
			cs.hasPending = false
			if !ok {
				return
			}

		case workload.OpLockAcq, workload.OpLockRel, workload.OpIO, workload.OpBarrier,
			workload.OpTxnEnd, workload.OpYield, workload.OpDone:
			// OS-visible ops serialize: drain the window, then run the
			// simple-core protocol at the drained time.
			if !core.drainReady() {
				return
			}
			if op.Kind == workload.OpLockAcq || op.Kind == workload.OpLockRel {
				if cs.memDone {
					cs.memDone = false
				} else {
					lat, stalled := m.access(cpu, op.Addr, true, false, core.vt, core.nextToken)
					if stalled {
						// Single blocking miss: reuse the ifetch-wait mechanism.
						core.ifetchToken = core.nextToken
						core.nextToken++
						core.waiting = oooWaitIfetch
						return
					}
					core.vt += lat
				}
			}
			var running bool
			if core.vt, running = m.osOp(cpu, tid, *op, core.vt); !running {
				return
			}
		}

		if budget <= 0 {
			m.scheduleStep(cpu, core.vt)
			return
		}
	}
}
