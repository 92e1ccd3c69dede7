package workload

import "varsim/internal/rng"

// The eager builders the engines used before op generation became
// lazy, kept as the oracle the streaming Next is held to: eagerTxn
// expands a whole transaction, and eagerSci a whole phase, into a
// per-thread op buffer at claim time, drawing every random number at
// build time. stream_test.go asserts op-for-op equality.

// Reference is an eager engine as the external tests see it.
type Reference interface {
	Next(tid int) Op
	Clone() Reference
}

// NewReference builds the eager counterpart of a freshly built engine.
func NewReference(inst Instance) Reference {
	switch e := inst.(type) {
	case *TxnEngine:
		return newEagerTxn(e.prof, e.seed)
	case *SciEngine:
		return newEagerSci(e.prof, e.seed)
	}
	panic("workload: no reference engine for " + inst.Name())
}

type eagerTxnThread struct {
	ops  []Op
	pos  int
	priv Region
	poff uint64 // rotating private offset
}

// eagerTxn is the reference transactional engine. It borrows the
// profile and the address layout of a TxnEngine and keeps its own feed,
// log head and threads.
type eagerTxn struct {
	lay     *TxnEngine
	feed    int64
	logHead uint64
	threads []eagerTxnThread
}

func newEagerTxn(prof TxnProfile, seed uint64) *eagerTxn {
	e := &eagerTxn{lay: NewTxnEngine(prof, seed)}
	e.threads = make([]eagerTxnThread, prof.Threads)
	for i := range e.threads {
		e.threads[i].priv = StackRegion(i)
	}
	return e
}

func (e *eagerTxn) Next(tid int) Op {
	t := &e.threads[tid]
	for t.pos >= len(t.ops) {
		e.buildTxn(tid)
	}
	op := t.ops[t.pos]
	t.pos++
	return op
}

// Clone deep-copies the reference engine.
func (e *eagerTxn) Clone() Reference {
	cp := *e
	cp.threads = append([]eagerTxnThread(nil), e.threads...)
	for i := range cp.threads {
		cp.threads[i].ops = append([]Op(nil), e.threads[i].ops...)
	}
	return &cp
}

// eagerBuilder bundles the state of one transaction's op-list construction.
type eagerBuilder struct {
	e       *eagerTxn
	t       *eagerTxnThread
	tid     int
	r       rng.Stream
	class   int
	pc      uint64
	code    Region
	brCount int
	sites   uint32 // site id space base for this class
}

func (b *eagerBuilder) emit(op Op) {
	op.PC = b.code.At(b.pc)
	b.t.ops = append(b.t.ops, op)
}

func (b *eagerBuilder) compute(n int64) {
	if n <= 0 {
		return
	}
	every := b.e.lay.prof.BranchEvery
	if every <= 0 {
		every = 8
	}
	for n > 0 {
		chunk := every
		if chunk > n {
			chunk = n
		}
		b.emit(Op{Kind: OpCompute, N: chunk})
		b.pc += uint64(chunk) * 4
		n -= chunk
		if n <= 0 {
			break
		}
		b.branch()
	}
}

func (b *eagerBuilder) branch() {
	b.brCount++
	nsites := b.e.lay.prof.BranchSites
	if nsites <= 0 {
		nsites = 64
	}
	site := b.sites + uint32(b.r.Intn(nsites))
	h := rng.Derive(uint64(site), 0xb1a5)
	var bias float64
	if h%10 < 7 {
		bias = 0.96 + 0.035*float64(h%100)/100
	} else {
		bias = 0.60 + 0.25*float64(h%100)/100
	}
	taken := b.r.Bool(bias)
	ind := false
	ie := b.e.lay.prof.IndirectEvery
	if ie > 0 && b.brCount%ie == 0 {
		ind = true
	}
	if ind {
		tsel := 0
		if b.r.Bool(0.25) {
			tsel = 1 + b.r.Intn(3)
		}
		b.emit(Op{Kind: OpBranch, Site: site, Taken: taken, Indirect: true,
			Addr: uint64(site)*64 + uint64(tsel)*8})
	} else {
		b.emit(Op{Kind: OpBranch, Site: site, Taken: taken})
	}
	b.pc += 4
}

func (b *eagerBuilder) rowRead(ti int, write bool) {
	prof := &b.e.lay.prof
	tab := prof.Tables[ti]
	reg := b.e.lay.tableRegions[ti]
	var row int64
	if prof.Classes[b.class].Partition {
		per := tab.Rows / int64(prof.Threads)
		if per < 1 {
			per = 1
		}
		row = int64(b.tid)*per + int64(b.r.Zipf(int(per), tab.Theta))
	} else {
		row = int64(b.r.Zipf(int(tab.Rows), tab.Theta))
	}
	b.emit(Op{Kind: OpLoad, Addr: reg.At(0)})
	inner := uint64(row) % 1024 * 64
	b.emit(Op{Kind: OpLoad, Addr: reg.At(64*1024 + inner)})
	leaf := uint64(row * tab.RowBytes)
	b.emit(Op{Kind: OpLoad, Addr: reg.At(leaf)})
	if write {
		b.emit(Op{Kind: OpStore, Addr: reg.At(leaf)})
		if tab.RowBytes > 64 {
			b.emit(Op{Kind: OpStore, Addr: reg.At(leaf + 64)})
		}
	} else if tab.RowBytes > 64 && b.r.Bool(0.5) {
		b.emit(Op{Kind: OpLoad, Addr: reg.At(leaf + 64)})
	}
}

func (b *eagerBuilder) private() {
	b.t.poff += 64
	addr := b.t.priv.At(b.t.poff)
	b.emit(Op{Kind: OpLoad, Addr: addr})
	b.emit(Op{Kind: OpStore, Addr: addr})
}

func (e *eagerTxn) buildTxn(tid int) {
	t := &e.threads[tid]
	t.ops = t.ops[:0]
	t.pos = 0
	prof := &e.lay.prof

	idx := e.feed
	e.feed++

	r := rng.New(rng.Derive(e.lay.seed, uint64(idx)))
	w := r.Intn(e.lay.weightSum)
	ci := 0
	for acc := 0; ci < len(prof.Classes); ci++ {
		acc += prof.Classes[ci].Weight
		if w < acc {
			break
		}
	}
	if ci >= len(prof.Classes) {
		ci = len(prof.Classes) - 1
	}
	class := prof.Classes[ci]
	intensity := prof.Phase.Intensity(idx)

	// Start PC, then the fork (see TxnEngine.buildTxn).
	pc := uint64(r.Intn(1024)) * 64
	b := eagerBuilder{
		e: e, t: t, tid: tid, r: r, class: ci,
		code:  e.lay.codeRegions[ci],
		pc:    pc,
		sites: uint32(ci) << 16,
	}

	if prof.ThinkNS > 0 {
		b.emit(Op{Kind: OpIO, N: prof.ThinkNS, ID: -1})
	}

	steps := int(float64(class.Steps)*intensity + 0.5)
	if steps < 1 {
		steps = 1
	}
	instr := int64(float64(class.InstrPerStep) * intensity)
	if instr < 8 {
		instr = 8
	}

	b.emit(Op{Kind: OpCall})
	b.compute(instr / 2)

	lockStart, lockEnd := -1, -1
	var lockID int32 = -1
	if class.LockFamily >= 0 {
		fam := class.LockFamily
		size := prof.LockFamilies[fam]
		lockID = e.lay.lockBase[fam] + int32(r.Intn(size))
		span := int(float64(steps)*class.LockedFrac + 0.5)
		if span < 1 {
			span = 1
		}
		if span > steps {
			span = steps
		}
		lockStart = (steps - span) / 2
		lockEnd = lockStart + span
	}

	ioStep := -1
	if class.IOProb > 0 && r.Bool(class.IOProb) {
		ioStep = r.Intn(steps)
	}

	for s := 0; s < steps; s++ {
		b.emit(Op{Kind: OpCall})
		if s == lockStart {
			b.emit(Op{Kind: OpLockAcq, ID: lockID, Addr: LockWordAddr(lockID)})
		}
		accesses := class.Reads + class.Writes
		chunk := instr / int64(accesses+1)
		locked := lockID >= 0 && s >= lockStart && s < lockEnd
		b.compute(chunk)
		for i := 0; i < class.Reads; i++ {
			ti := class.Tables[r.Intn(len(class.Tables))]
			b.rowRead(ti, false)
			b.compute(chunk)
		}
		for i := 0; i < class.Writes; i++ {
			ti := class.Tables[r.Intn(len(class.Tables))]
			if lockID < 0 || locked {
				b.rowRead(ti, true)
			} else {
				b.rowRead(ti, false)
			}
			b.compute(chunk)
		}
		for i := 0; i < prof.PrivatePerOp; i++ {
			b.private()
		}
		if s == ioStep && class.IOMeanNS > 0 {
			dur := int64(r.Exp(float64(class.IOMeanNS)))
			if dur < 1000 {
				dur = 1000
			}
			disk := 1 + r.Intn(max(prof.DataDisks, 1))
			b.emit(Op{Kind: OpIO, N: dur, ID: int32(disk)})
		}
		if s == lockEnd-1 && lockID >= 0 {
			b.emit(Op{Kind: OpLockRel, ID: lockID, Addr: LockWordAddr(lockID)})
		}
		b.emit(Op{Kind: OpRet})
	}

	if prof.HasLog && class.LogRecords > 0 {
		b.emit(Op{Kind: OpLockAcq, ID: 0, Addr: LockWordAddr(0)})
		for i := 0; i < class.LogRecords; i++ {
			addr := LogBase + e.logHead%LogSize
			b.emit(Op{Kind: OpStore, Addr: addr})
			e.logHead += uint64(prof.LogRecBytes)
		}
		flush := prof.FlushEvery > 0 && idx%prof.FlushEvery == 0
		if flush && prof.GroupCommit {
			b.emit(Op{Kind: OpIO, N: prof.FlushNS, ID: 0})
		}
		b.emit(Op{Kind: OpLockRel, ID: 0, Addr: LockWordAddr(0)})
		if flush && !prof.GroupCommit {
			b.emit(Op{Kind: OpIO, N: prof.FlushNS, ID: 0})
		}
	}
	b.compute(instr / 2)
	b.emit(Op{Kind: OpRet})
	b.emit(Op{Kind: OpTxnEnd, ID: int32(ci)})
}

type eagerSciThread struct {
	rng   rng.Stream
	ops   []Op
	pos   int
	phase int
	done  bool
}

// eagerSci is the reference scientific engine; like eagerTxn it borrows
// a SciEngine's profile and layout.
type eagerSci struct {
	lay     *SciEngine
	threads []eagerSciThread
}

func newEagerSci(prof SciProfile, seed uint64) *eagerSci {
	e := &eagerSci{lay: NewSciEngine(prof, seed)}
	e.threads = make([]eagerSciThread, prof.Threads)
	for i := range e.threads {
		e.threads[i].rng = rng.New(rng.Derive(seed, 0x2000+uint64(i)))
	}
	return e
}

func (e *eagerSci) Next(tid int) Op {
	t := &e.threads[tid]
	for t.pos >= len(t.ops) {
		if t.done {
			return Op{Kind: OpDone}
		}
		e.buildPhase(tid)
	}
	op := t.ops[t.pos]
	t.pos++
	return op
}

// Clone deep-copies the reference engine.
func (e *eagerSci) Clone() Reference {
	cp := *e
	cp.threads = append([]eagerSciThread(nil), e.threads...)
	for i := range cp.threads {
		cp.threads[i].ops = append([]Op(nil), e.threads[i].ops...)
	}
	return &cp
}

func (e *eagerSci) buildPhase(tid int) {
	t := &e.threads[tid]
	t.ops = t.ops[:0]
	t.pos = 0
	p := e.lay.prof
	code, shared, parts := e.lay.code, e.lay.shared, e.lay.parts

	if t.phase >= p.Phases {
		if tid == 0 {
			t.ops = append(t.ops, Op{Kind: OpTxnEnd, PC: code.At(0)})
		}
		t.ops = append(t.ops, Op{Kind: OpDone})
		t.done = true
		return
	}

	part := parts[tid]
	pc := uint64(t.phase%64) * 256
	emit := func(op Op) {
		op.PC = code.At(pc)
		t.ops = append(t.ops, op)
		pc += 4
	}

	stride := p.SweepStride
	if stride < 64 {
		stride = 64
	}
	touches := int(int64(part.Size) / stride)
	if touches < 1 {
		touches = 1
	}
	instrPerTouch := p.InstrPerPhase / int64(touches)
	if instrPerTouch < 1 {
		instrPerTouch = 1
	}
	sharedEvery := 0
	if p.SharedReads > 0 {
		sharedEvery = max(touches/p.SharedReads, 1)
	}
	for i := 0; i < touches; i++ {
		addr := part.At(uint64(int64(i) * stride))
		emit(Op{Kind: OpLoad, Addr: addr})
		if t.rng.Bool(p.WriteFrac) {
			emit(Op{Kind: OpStore, Addr: addr})
		}
		if sharedEvery > 0 && i%sharedEvery == 0 {
			soff := uint64(t.rng.Zipf(int(shared.Size/64), p.SharedTheta)) * 64
			emit(Op{Kind: OpLoad, Addr: shared.At(soff)})
		}
		emit(Op{Kind: OpCompute, N: instrPerTouch})
		if i%4 == 3 {
			site := uint32(0x4000 + i%128)
			emit(Op{Kind: OpBranch, Site: site, Taken: t.rng.Bool(0.97)})
		}
	}
	for bdry := 0; bdry < p.BoundaryRows; bdry++ {
		nb := parts[(tid+1)%p.Threads]
		emit(Op{Kind: OpLoad, Addr: nb.At(uint64(bdry) * 64)})
		pv := parts[(tid+p.Threads-1)%p.Threads]
		emit(Op{Kind: OpLoad, Addr: pv.At(pv.Size - 64 - uint64(bdry)*64)})
	}
	emit(Op{Kind: OpLockAcq, ID: 0, Addr: LockWordAddr(0)})
	emit(Op{Kind: OpStore, Addr: shared.At(0)})
	emit(Op{Kind: OpLockRel, ID: 0, Addr: LockWordAddr(0)})
	emit(Op{Kind: OpBarrier, ID: 0})
	t.phase++
}
