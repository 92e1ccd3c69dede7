package workload

import (
	"fmt"

	"varsim/internal/rng"
)

// Table describes one shared data region (a database table, file cache,
// or object heap) accessed through an emulated index walk.
type Table struct {
	Name     string
	Rows     int64
	RowBytes int64
	Theta    float64 // Zipf skew of row popularity (0 = uniform-ish)
}

// TxnClass describes one transaction type of the mix (§3.1: the OLTP
// workload has five types; other workloads have their own mixes).
type TxnClass struct {
	Name         string
	Weight       int   // selection weight in the mix
	Steps        int   // work steps per transaction (mean)
	InstrPerStep int64 // compute instructions per step (mean)
	Reads        int   // row reads per step
	Writes       int   // row writes per step
	Tables       []int // indices into Profile.Tables this class touches
	LockFamily   int   // lock family acquired for the locked section; -1 = none
	LockedFrac   float64
	LogRecords   int     // log records appended at commit
	IOProb       float64 // probability of a blocking data-disk read
	IOMeanNS     int64
	CodeBytes    int64 // code footprint of this class
	// Partition confines row accesses to the executing thread's slice of
	// each table (SPECjbb-style per-warehouse data: no inter-thread
	// sharing, hence almost no space variability).
	Partition bool
}

// TxnProfile configures the transactional workload engine.
type TxnProfile struct {
	Name         string
	Threads      int
	Tables       []Table
	Classes      []TxnClass
	LockFamilies []int // family sizes; family i has LockFamilies[i] locks

	HasLog        bool
	LogRecBytes   int64
	FlushEvery    int64 // every FlushEvery commits, flush log to disk under the log lock
	FlushNS       int64
	GroupCommit   bool // hold the log lock across the flush (convoy source)
	LogLatch      bool // protect the log tail with a spin latch instead of a blocking mutex
	DataDisks     int
	ThinkNS       int64 // optional think time between transactions (0 for TPC-C-like, §3.1)
	PrivatePerOp  int   // private (stack) touches per step
	BranchEvery   int64 // one branch per this many compute instructions
	BranchSites   int   // distinct branch sites per class
	IndirectEvery int   // every n-th branch is indirect
	Phase         PhaseModel
}

// Validate checks internal consistency.
func (p *TxnProfile) Validate() error {
	if p.Threads <= 0 {
		return fmt.Errorf("workload %s: no threads", p.Name)
	}
	if len(p.Classes) == 0 {
		return fmt.Errorf("workload %s: no transaction classes", p.Name)
	}
	for _, c := range p.Classes {
		if c.LockFamily >= len(p.LockFamilies) {
			return fmt.Errorf("workload %s: class %s references lock family %d of %d", p.Name, c.Name, c.LockFamily, len(p.LockFamilies))
		}
		for _, t := range c.Tables {
			if t < 0 || t >= len(p.Tables) {
				return fmt.Errorf("workload %s: class %s references table %d", p.Name, c.Name, t)
			}
		}
		if c.Weight <= 0 || c.Steps <= 0 {
			return fmt.Errorf("workload %s: class %s needs positive weight and steps", p.Name, c.Name)
		}
	}
	return nil
}

// txnThread is one user thread's generator state.
type txnThread struct {
	rng    rng.Stream
	ops    []Op
	pos    int
	priv   Region
	poff   uint64 // rotating private offset
	shared bool   // ops buffer aliased with a clone; reallocate before reuse
}

// TxnEngine implements Instance for throughput-oriented transactional
// workloads. Transactions are defined by a shared feed: transaction idx
// has a fixed identity (class, rows, locks) derived from the workload
// seed, but which thread executes it — and hence on which processor and
// with which cache contents — is decided by execution timing.
type TxnEngine struct {
	prof    TxnProfile
	seed    uint64
	feed    int64
	logHead uint64
	threads []txnThread
	frozen  bool // all threads' ops buffers marked shared since last build

	tableRegions []Region
	codeRegions  []Region
	lockBase     []int32 // family -> first lock id (log lock is id 0)
	numLocks     int
	weightSum    int
}

// NewTxnEngine builds an engine from a profile. The profile must
// validate. seed fixes the workload's identity (its "database contents"
// and transaction feed): runs with the same seed start from the same
// initial conditions.
func NewTxnEngine(prof TxnProfile, seed uint64) *TxnEngine {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	e := &TxnEngine{prof: prof, seed: seed}
	// Lock id 0 is the log lock; families follow.
	next := int32(1)
	for _, size := range prof.LockFamilies {
		e.lockBase = append(e.lockBase, next)
		next += int32(size)
	}
	e.numLocks = int(next)
	// Allocate table regions upward from TableBase, block aligned.
	base := TableBase
	for _, t := range prof.Tables {
		size := uint64(t.Rows * t.RowBytes)
		size = (size + 63) &^ 63
		e.tableRegions = append(e.tableRegions, Region{Base: base, Size: size})
		base += size
	}
	// Code regions per class.
	cbase := CodeBase
	for _, c := range prof.Classes {
		sz := uint64(c.CodeBytes)
		if sz == 0 {
			sz = 64 << 10
		}
		e.codeRegions = append(e.codeRegions, Region{Base: cbase, Size: sz})
		cbase += sz
	}
	for _, c := range prof.Classes {
		e.weightSum += c.Weight
	}
	e.threads = make([]txnThread, prof.Threads)
	for i := range e.threads {
		e.threads[i] = txnThread{
			rng:  rng.New(rng.Derive(seed, 0x1000+uint64(i))),
			priv: StackRegion(i),
		}
	}
	return e
}

// Name implements Instance.
func (e *TxnEngine) Name() string { return e.prof.Name }

// NumThreads implements Instance.
func (e *TxnEngine) NumThreads() int { return e.prof.Threads }

// NumLocks implements Instance.
func (e *TxnEngine) NumLocks() int { return e.numLocks }

// NumSpinLocks implements Instance: the log lock (id 0) is a spin latch
// when the profile says so.
func (e *TxnEngine) NumSpinLocks() int {
	if e.prof.HasLog && e.prof.LogLatch {
		return 1
	}
	return 0
}

// NumBarriers implements Instance.
func (e *TxnEngine) NumBarriers() int { return 0 }

// FeedIndex returns how many transactions have been claimed from the
// shared feed (for tests).
func (e *TxnEngine) FeedIndex() int64 { return e.feed }

// Next implements Instance.
func (e *TxnEngine) Next(tid int) Op {
	t := &e.threads[tid]
	for t.pos >= len(t.ops) {
		e.buildTxn(tid)
	}
	op := t.ops[t.pos]
	t.pos++
	return op
}

// Freeze marks every thread's op buffer as shared, so both this engine
// and its future clones reallocate (rather than truncate-and-refill)
// the buffer at their next transaction build. Part of the copy-on-write
// snapshot protocol (see workload.Freezer).
func (e *TxnEngine) Freeze() {
	if e.frozen {
		return
	}
	for i := range e.threads {
		e.threads[i].shared = true
	}
	e.frozen = true
}

// Materialize copies any thread op buffers still shared with another
// instance (see workload.Materializer).
func (e *TxnEngine) Materialize() {
	for i := range e.threads {
		t := &e.threads[i]
		if t.shared {
			t.ops = append([]Op(nil), t.ops...)
			t.shared = false
		}
	}
	e.frozen = false
}

// Clone implements Instance. The per-thread op buffers are shared
// copy-on-write: each side reallocates its buffer the first time it
// builds a new transaction. Cloning freezes e if needed (a write); to
// clone concurrently, Freeze first — Clone on a frozen engine is
// read-only.
func (e *TxnEngine) Clone() Instance {
	e.Freeze()
	cp := *e
	cp.threads = append([]txnThread(nil), e.threads...)
	cp.tableRegions = append([]Region(nil), e.tableRegions...)
	cp.codeRegions = append([]Region(nil), e.codeRegions...)
	cp.lockBase = append([]int32(nil), e.lockBase...)
	return &cp
}

// builder bundles the state of one transaction's op-list construction.
type builder struct {
	e       *TxnEngine
	t       *txnThread
	tid     int
	r       rng.Stream
	class   int
	pc      uint64
	code    Region
	brCount int
	sites   uint32 // site id space base for this class
}

func (b *builder) emit(op Op) {
	op.PC = b.code.At(b.pc)
	b.t.ops = append(b.t.ops, op)
}

// compute emits n instructions of computation, interleaved with branch
// ops so both processor models consume the identical stream.
func (b *builder) compute(n int64) {
	if n <= 0 {
		return
	}
	every := b.e.prof.BranchEvery
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

// branch emits one conditional (or, periodically, indirect) branch with a
// per-site outcome bias: sites are mostly predictable, a few are noisy,
// matching the mix real predictors see.
func (b *builder) branch() {
	b.brCount++
	nsites := b.e.prof.BranchSites
	if nsites <= 0 {
		nsites = 64
	}
	site := b.sites + uint32(b.r.Intn(nsites))
	// Site-determined bias: most sites are strongly biased (loop
	// back-edges, error checks), a minority are data-dependent and noisy
	// — the mix real predictors face.
	h := rng.Derive(uint64(site), 0xb1a5)
	var bias float64
	if h%10 < 7 {
		bias = 0.96 + 0.035*float64(h%100)/100
	} else {
		bias = 0.60 + 0.25*float64(h%100)/100
	}
	taken := b.r.Bool(bias)
	ind := false
	ie := b.e.prof.IndirectEvery
	if ie > 0 && b.brCount%ie == 0 {
		ind = true
	}
	if ind {
		// Indirect target: per-site dominant target with occasional
		// alternates (virtual dispatch on a skewed type distribution).
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

// rowRead emits an emulated index walk to a row of table ti: a hot root
// touch, a warm interior touch, then the leaf row (one or two blocks).
func (b *builder) rowRead(ti int, write bool) {
	tab := b.e.prof.Tables[ti]
	reg := b.e.tableRegions[ti]
	var row int64
	if b.e.prof.Classes[b.class].Partition {
		per := tab.Rows / int64(b.e.prof.Threads)
		if per < 1 {
			per = 1
		}
		row = int64(b.tid)*per + int64(b.r.Zipf(int(per), tab.Theta))
	} else {
		row = int64(b.r.Zipf(int(tab.Rows), tab.Theta))
	}
	// Root: block 0 of the region; interior: one of the first 1024 blocks.
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

// private emits a stack touch (L1-resident most of the time).
func (b *builder) private() {
	b.t.poff += 64
	addr := b.t.priv.At(b.t.poff)
	b.emit(Op{Kind: OpLoad, Addr: addr})
	b.emit(Op{Kind: OpStore, Addr: addr})
}

// buildTxn claims the next transaction from the shared feed and expands
// it into ops in the thread's buffer.
func (e *TxnEngine) buildTxn(tid int) {
	t := &e.threads[tid]
	if t.shared {
		// Buffer aliased with a snapshot clone: replace it instead of
		// truncating in place (the appends below would stomp the
		// clone's pending ops). The old capacity already fits this
		// thread's transactions; starting from nil would regrow to it
		// by doubling in every branch.
		t.ops = make([]Op, 0, cap(t.ops))
		t.shared = false
		e.frozen = false
	}
	t.ops = t.ops[:0]
	t.pos = 0

	idx := e.feed
	e.feed++

	// The transaction's identity is a pure function of (seed, idx).
	r := rng.New(rng.Derive(e.seed, uint64(idx)))
	w := r.Intn(e.weightSum)
	ci := 0
	for acc := 0; ci < len(e.prof.Classes); ci++ {
		acc += e.prof.Classes[ci].Weight
		if w < acc {
			break
		}
	}
	if ci >= len(e.prof.Classes) {
		ci = len(e.prof.Classes) - 1
	}
	class := e.prof.Classes[ci]
	intensity := e.prof.Phase.Intensity(idx)

	b := builder{
		e: e, t: t, tid: tid, r: r, class: ci,
		code:  e.codeRegions[ci],
		pc:    uint64(r.Intn(1024)) * 64,
		sites: uint32(ci) << 16,
	}

	if e.prof.ThinkNS > 0 {
		b.emit(Op{Kind: OpIO, N: e.prof.ThinkNS, ID: -1})
	}

	steps := int(float64(class.Steps)*intensity + 0.5)
	if steps < 1 {
		steps = 1
	}
	instr := int64(float64(class.InstrPerStep) * intensity)
	if instr < 8 {
		instr = 8
	}

	// Begin: parse/plan.
	b.emit(Op{Kind: OpCall})
	b.compute(instr / 2)

	// Locked section boundaries.
	lockStart, lockEnd := -1, -1
	var lockID int32 = -1
	if class.LockFamily >= 0 {
		fam := class.LockFamily
		size := e.prof.LockFamilies[fam]
		lockID = e.lockBase[fam] + int32(r.Intn(size))
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

	// Optional blocking data-disk read (buffer-pool miss).
	ioStep := -1
	if class.IOProb > 0 && r.Bool(class.IOProb) {
		ioStep = r.Intn(steps)
	}

	for s := 0; s < steps; s++ {
		b.emit(Op{Kind: OpCall}) // per-step helper function (RAS exercise)
		if s == lockStart {
			b.emit(Op{Kind: OpLockAcq, ID: lockID, Addr: LockWordAddr(lockID)})
		}
		// Interleave computation between row accesses: the resulting
		// inter-miss instruction gaps are what make reorder-buffer size
		// matter (Experiment 2) — a larger window overlaps more of the
		// next access's miss latency.
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
			// Unlocked classes still write (engine-level latching is
			// below our model's granularity), but locked classes confine
			// writes to the critical section.
			if lockID < 0 || locked {
				b.rowRead(ti, true)
			} else {
				b.rowRead(ti, false)
			}
			b.compute(chunk)
		}
		for i := 0; i < e.prof.PrivatePerOp; i++ {
			b.private()
		}
		if s == ioStep && class.IOMeanNS > 0 {
			dur := int64(r.Exp(float64(class.IOMeanNS)))
			if dur < 1000 {
				dur = 1000
			}
			disk := 1 + r.Intn(max(e.prof.DataDisks, 1))
			b.emit(Op{Kind: OpIO, N: dur, ID: int32(disk)})
		}
		if s == lockEnd-1 && lockID >= 0 {
			b.emit(Op{Kind: OpLockRel, ID: lockID, Addr: LockWordAddr(lockID)})
		}
		b.emit(Op{Kind: OpRet})
	}

	// Commit: append log records under the global log lock.
	if e.prof.HasLog && class.LogRecords > 0 {
		b.emit(Op{Kind: OpLockAcq, ID: 0, Addr: LockWordAddr(0)})
		for i := 0; i < class.LogRecords; i++ {
			addr := LogBase + e.logHead%LogSize
			b.emit(Op{Kind: OpStore, Addr: addr})
			e.logHead += uint64(e.prof.LogRecBytes)
		}
		flush := e.prof.FlushEvery > 0 && idx%e.prof.FlushEvery == 0
		if flush && e.prof.GroupCommit {
			b.emit(Op{Kind: OpIO, N: e.prof.FlushNS, ID: 0}) // log disk, lock held
		}
		b.emit(Op{Kind: OpLockRel, ID: 0, Addr: LockWordAddr(0)})
		if flush && !e.prof.GroupCommit {
			b.emit(Op{Kind: OpIO, N: e.prof.FlushNS, ID: 0})
		}
	}
	b.compute(instr / 2)
	b.emit(Op{Kind: OpRet})
	b.emit(Op{Kind: OpTxnEnd, ID: int32(ci)})
}
