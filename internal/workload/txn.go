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

// planKind says what one entry of a transaction's plan stands for. The
// macros are a type of their own rather than extra OpKind values: an
// OpKind is something a processor model executes.
type planKind uint8

const (
	// planOp is one literal op.
	planOp planKind = iota
	// planCompute is a compute run of arg instructions: chunks of
	// BranchEvery instructions with one branch between neighbours.
	planCompute
	// planWalk is an emulated index walk to one row of table id: a hot
	// root touch, a warm interior touch, then the leaf row (one or two
	// blocks), loaded and — for a write — stored.
	planWalk
	// planStack is a stack touch (L1-resident most of the time): a load
	// and a store of the thread's next private block.
	planStack
)

// planEntry is one step of a transaction's plan: a literal op, or a
// macro that NextInto unrolls one op at a time. Four fifths of a
// transaction's ops are compute/branch pairs and most of the rest index
// walks, so a ~1 200-op OLTP transaction is a ~200-entry plan.
type planEntry struct {
	kind  planKind
	op    OpKind // planOp: Op.Kind
	write bool   // planWalk: the leaf row is stored to
	id    int32  // planOp: Op.ID; planWalk: table index
	arg   uint64 // planOp: Op.N of an OpIO, Op.Addr of any other; planCompute: instructions
}

// Flags of the walk being unrolled.
const (
	walkWrite  uint8 = 1 << iota // the loads are followed by a store to the leaf
	walkSecond                   // the leaf's second block is touched too
)

// txnThread is one user thread's generator state: the plan of its
// current transaction and how far NextInto has unrolled it. Everything but
// the plan's backing array is plain data, so copying the struct
// checkpoints the thread.
type txnThread struct {
	plan []planEntry
	next int32 // the plan entry NextInto starts after the one in progress
	// class is the transaction's class, which fixes its code region and
	// its branch-site space.
	class int32
	// fork is the transaction's second random stream (see buildTxn):
	// every draw the macros make comes from it, in emission order.
	fork rng.Stream
	pc   uint64 // PC cursor: an offset into the class's code region, kept below its size
	poff uint64 // rotating private (stack) offset

	run    int64  // instructions left in the compute run being unrolled; 0 = none
	row    uint64 // row of the walk being unrolled
	indIn  int32  // branches left until the next indirect one
	step   uint8  // ops already emitted of the walk or stack touch being unrolled; 0 = none
	flags  uint8  // walkWrite, walkSecond
	brNext bool   // inside a run: the next op is the branch between two chunks
	shared bool   // plan aliased with a clone; reallocate before reuse
}

// TxnEngine implements Instance for throughput-oriented transactional
// workloads. Transactions are defined by a shared feed: transaction idx
// has a fixed identity (class, rows, locks) derived from the workload
// seed, but which thread executes it — and hence on which processor and
// with which cache contents — is decided by execution timing.
//
// Op generation has two levels. When a thread runs out of work,
// buildTxn claims the next transaction and writes down its plan; NextInto
// then expands the plan one op at a time. No instruction stream is ever
// stored, and the stream is nevertheless the one an eager expansion at
// build time would give (the reference builder in the package's tests
// is exactly that), for three reasons:
//
//   - Two random streams. A transaction's identity — class, start PC,
//     lock id, I/O step, table picks, I/O time, disk — is drawn in
//     buildTxn from r, seeded by (workload seed, idx). Everything a
//     macro draws — branch site, outcome and indirect target, Zipf
//     rows, the second-block coin — comes from a fork of r taken once,
//     right after the start PC. Nothing else reads the fork, so drawing
//     from it as ops are emitted consumes it in the same order as
//     drawing it all at build time.
//   - Shared state — the feed position and the log head — is still
//     claimed in buildTxn, so the order in which threads claim it, and
//     what each gets, does not depend on when their ops are consumed.
//   - PCs come from a cursor into the class's code region that only
//     compute runs move: 4·chunk past each compute op, 4 past each
//     branch.
//
// Compute runs — four fifths of the ops — can also be consumed without
// being made: RunPC and StepRun (see RunStepper) move the same expansion
// state as far as the same ops drawn with NextInto.
type TxnEngine struct {
	prof    TxnProfile
	seed    uint64
	feed    int64
	logHead uint64
	threads []txnThread
	frozen  bool // all threads' plans marked shared since last build
	// spares holds, per thread, an empty buffer this engine owns alone,
	// handed over by CloneOver from the engine it was built over:
	// buildTxn writes the thread's next plan into it rather than
	// allocating when the current plan is shared. Nil for an engine built
	// from scratch; read for capacity only, and never copied to a clone.
	spares [][]planEntry

	// Fixed at construction and shared, never copied, by clones.
	tableRegions []Region
	codeRegions  []Region
	lockBase     []int32   // family -> first lock id (log lock is id 0)
	bias         []float64 // taken-probability of branch site k of class ci, at ci*branchSites+k
	branchEvery  int64     // prof.BranchEvery, defaulted
	branchSites  int       // prof.BranchSites, defaulted
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
	e.branchEvery = prof.BranchEvery
	if e.branchEvery <= 0 {
		e.branchEvery = 8
	}
	e.branchSites = prof.BranchSites
	if e.branchSites <= 0 {
		e.branchSites = 64
	}
	// Site-determined outcome bias: most sites are strongly biased (loop
	// back-edges, error checks), a minority are data-dependent and noisy
	// — the mix real predictors face. A pure function of the site id, so
	// it is tabulated here instead of rehashed at every branch.
	e.bias = make([]float64, len(prof.Classes)*e.branchSites)
	for i := range e.bias {
		site := uint32(i/e.branchSites)<<16 + uint32(i%e.branchSites)
		h := rng.Derive(uint64(site), 0xb1a5)
		if h%10 < 7 {
			e.bias[i] = 0.96 + 0.035*float64(h%100)/100
		} else {
			e.bias[i] = 0.60 + 0.25*float64(h%100)/100
		}
	}
	e.threads = make([]txnThread, prof.Threads)
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

// Next implements Instance: NextInto into a fresh Op.
func (e *TxnEngine) Next(tid int) Op {
	var op Op
	e.NextInto(tid, &op)
	return op
}

// NextInto implements Instance: it continues the macro in progress, or
// starts the thread's next plan entry, claiming a new transaction when
// the plan is used up, and writes the op into *op.
func (e *TxnEngine) NextInto(tid int, op *Op) {
	t := &e.threads[tid]
	if t.run > 0 {
		e.unrollRun(t, op)
		return
	}
	if t.step > 0 {
		e.unrollTouch(t, tid, op)
		return
	}
	if int(t.next) == len(t.plan) {
		e.buildTxn(tid)
	}
	p := &t.plan[t.next]
	t.next++
	code := e.codeRegions[t.class]
	switch p.kind {
	case planOp:
		*op = Op{Kind: p.op, ID: p.id, PC: code.Base + t.pc}
		if p.op == OpIO {
			op.N = int64(p.arg)
		} else {
			op.Addr = p.arg
		}
	case planCompute:
		t.run = int64(p.arg)
		e.unrollRun(t, op)
	case planWalk:
		tab := &e.prof.Tables[p.id]
		if e.prof.Classes[t.class].Partition {
			per := max(tab.Rows/int64(e.prof.Threads), 1)
			t.row = uint64(int64(tid)*per + int64(t.fork.Zipf(int(per), tab.Theta)))
		} else {
			t.row = uint64(t.fork.Zipf(int(tab.Rows), tab.Theta))
		}
		// The coin is drawn here and not after the leaf load: the loads
		// between draw nothing, so the fork sees the same sequence.
		t.flags = 0
		if p.write {
			t.flags = walkWrite
			if tab.RowBytes > 64 {
				t.flags |= walkSecond
			}
		} else if tab.RowBytes > 64 && t.fork.Bool(0.5) {
			t.flags = walkSecond
		}
		t.step = 1
		// Root: block 0 of the region.
		*op = Op{Kind: OpLoad, Addr: e.tableRegions[p.id].At(0), PC: code.Base + t.pc}
	case planStack:
		t.poff += 64
		t.step = 1
		*op = Op{Kind: OpLoad, Addr: StackRegion(tid).At(t.poff), PC: code.Base + t.pc}
	default:
		panic(fmt.Sprintf("workload: plan entry of unknown kind %d", p.kind))
	}
}

// unrollRun writes the next op of the compute run in progress into *op:
// chunks of branchEvery instructions with a branch between each two, so
// both processor models consume the identical stream.
func (e *TxnEngine) unrollRun(t *txnThread, op *Op) {
	code := e.codeRegions[t.class]
	if t.brNext {
		t.brNext = false
		e.branch(t, code, op)
		return
	}
	chunk := min(e.branchEvery, t.run)
	t.run -= chunk
	t.brNext = t.run > 0
	*op = Op{Kind: OpCompute, N: chunk, PC: code.Base + t.pc}
	t.pc = code.Advance(t.pc, uint64(chunk)*4)
}

// branch writes one conditional (or, periodically, indirect) branch with
// its site's outcome bias into *op.
func (e *TxnEngine) branch(t *txnThread, code Region, op *Op) {
	k := t.fork.Intn(e.branchSites)
	site := uint32(t.class)<<16 + uint32(k)
	*op = Op{Kind: OpBranch, Site: site, PC: code.Base + t.pc,
		Taken: t.fork.Bool(e.bias[int(t.class)*e.branchSites+k])}
	if tsel, ok := e.indirectTarget(t); ok {
		op.Indirect = true
		op.Addr = uint64(site)*64 + uint64(tsel)*8
	}
	t.pc = code.Advance(t.pc, 4)
}

// indirectTarget counts one branch against the thread's countdown and,
// when it is the IndirectEvery-th, makes it indirect and draws which of
// its site's targets it takes: the dominant one, with occasional
// alternates (virtual dispatch on a skewed type distribution).
func (e *TxnEngine) indirectTarget(t *txnThread) (tsel int, ok bool) {
	if e.prof.IndirectEvery <= 0 {
		return 0, false
	}
	if t.indIn--; t.indIn != 0 {
		return 0, false
	}
	t.indIn = int32(e.prof.IndirectEvery)
	if t.fork.Bool(0.25) {
		tsel = 1 + t.fork.Intn(3)
	}
	return tsel, true
}

// RunPC implements RunStepper: the next op is a run op when a run is
// being unrolled, or when no macro is and the next plan entry is a
// compute run (which StepRun or NextInto then starts). A used-up plan says
// no — a transaction never opens with a run — so the feed is only ever
// claimed by NextInto.
func (e *TxnEngine) RunPC(tid int) (uint64, bool) {
	t := &e.threads[tid]
	if t.run == 0 && (t.step > 0 || int(t.next) == len(t.plan) || t.plan[t.next].kind != planCompute) {
		return 0, false
	}
	return e.codeRegions[t.class].Base + t.pc, true
}

// StepRun implements RunStepper. It is unrollRun in a loop with the ops
// left unmade: the cursor moves as far, and a skipped branch draws from
// the fork what an emitted one does, so the Zipf rows drawn after the
// run come out the same.
func (e *TxnEngine) StepRun(tid int, blockBits uint, limit int64) int64 {
	t := &e.threads[tid]
	if t.run == 0 {
		t.run = int64(t.plan[t.next].arg)
		t.next++
	}
	code := e.codeRegions[t.class]
	block := (code.Base + t.pc) >> blockBits
	var n int64
	for {
		if t.brNext {
			// branch's draws with the values unread: one word for the site
			// (Intn), one for the outcome (Bool, whatever the site's bias),
			// then the indirect target if one is due.
			t.brNext = false
			t.fork.Uint64()
			t.fork.Uint64()
			e.indirectTarget(t)
			t.pc = code.Advance(t.pc, 4)
			n++
		} else {
			chunk := min(e.branchEvery, t.run)
			t.run -= chunk
			t.brNext = t.run > 0
			t.pc = code.Advance(t.pc, uint64(chunk)*4)
			n += chunk
		}
		if t.run == 0 || n >= limit || (code.Base+t.pc)>>blockBits != block {
			return n
		}
	}
}

// unrollTouch writes the next op of the index walk or stack touch in
// progress into *op; its first op went out when NextInto started the
// plan entry.
func (e *TxnEngine) unrollTouch(t *txnThread, tid int, op *Op) {
	p := &t.plan[t.next-1]
	*op = Op{Kind: OpLoad, PC: e.codeRegions[t.class].Base + t.pc}
	if p.kind == planStack {
		t.step = 0
		op.Kind = OpStore
		op.Addr = StackRegion(tid).At(t.poff)
		return
	}
	reg := e.tableRegions[p.id]
	leaf := t.row * uint64(e.prof.Tables[p.id].RowBytes)
	switch t.step {
	case 1: // interior: one of the first 1024 blocks past the root's 64 KB
		op.Addr = reg.At(64*1024 + t.row%1024*64)
	case 2:
		op.Addr = reg.At(leaf)
	case 3:
		if t.flags&walkWrite != 0 {
			op.Kind = OpStore
			op.Addr = reg.At(leaf)
		} else {
			op.Addr = reg.At(leaf + 64)
		}
	default:
		op.Kind = OpStore
		op.Addr = reg.At(leaf + 64)
	}
	// Three loads, then one more op for each flag set.
	t.step++
	if t.step == 3+t.flags&1+t.flags>>1 {
		t.step = 0
	}
}

// Freeze marks every thread's plan as shared, so both this engine and
// its future clones reallocate (rather than truncate-and-refill) the
// plan at their next transaction build. Part of the copy-on-write
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

// Materialize copies any thread plans still shared with another
// instance (see workload.Materializer).
func (e *TxnEngine) Materialize() {
	for i := range e.threads {
		t := &e.threads[i]
		if t.shared {
			t.plan = append([]planEntry(nil), t.plan...)
			t.shared = false
		}
	}
	e.frozen = false
}

// CloneOver implements Instance. It copies the per-thread state —
// cursors, the fork stream, the macro in progress — and shares
// everything else: the layout tables are never written after
// construction, and the plans are copy-on-write, each side writing a new
// one the first time it builds a transaction. When spent is a TxnEngine
// of as many threads, the copy is made in its thread array, and the plan
// each of spent's threads owned (or the spare it never used) becomes the
// spare buffer that new plan is written into; a plan spent shared with
// another instance is never a donor. Cloning freezes e if needed (a
// write); to clone concurrently, Freeze first — CloneOver on a frozen
// engine writes only the copy.
func (e *TxnEngine) CloneOver(spent Instance) Instance {
	e.Freeze()
	cp, _ := spent.(*TxnEngine)
	var spares [][]planEntry
	if cp == nil || cp == e || len(cp.threads) != len(e.threads) {
		cp = &TxnEngine{threads: make([]txnThread, len(e.threads))}
	} else {
		spares = cp.spares
		if spares == nil {
			spares = make([][]planEntry, len(cp.threads))
		}
		for i := range cp.threads {
			if t := &cp.threads[i]; !t.shared {
				spares[i] = t.plan[:0]
			}
		}
	}
	threads := cp.threads
	*cp = *e
	cp.threads, cp.spares = threads, spares
	copy(threads, e.threads)
	return cp
}

// Plan recording: buildTxn's vocabulary.

func (t *txnThread) op(kind OpKind, id int32, arg uint64) {
	t.plan = append(t.plan, planEntry{kind: planOp, op: kind, id: id, arg: arg})
}

func (t *txnThread) lockOp(kind OpKind, id int32) {
	t.op(kind, id, LockWordAddr(id))
}

func (t *txnThread) compute(n int64) {
	if n > 0 {
		t.plan = append(t.plan, planEntry{kind: planCompute, arg: uint64(n)})
	}
}

func (t *txnThread) walk(ti int, write bool) {
	t.plan = append(t.plan, planEntry{kind: planWalk, id: int32(ti), write: write})
}

func (t *txnThread) stack() {
	t.plan = append(t.plan, planEntry{kind: planStack})
}

// buildTxn claims the next transaction from the shared feed and writes
// its plan into the thread's buffer.
func (e *TxnEngine) buildTxn(tid int) {
	t := &e.threads[tid]

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

	// Draw the start PC first, then fork. Both once sat in one composite
	// literal, where Go leaves the order of the copy against the call
	// unspecified; this is the order the gc compiler chose, and the one
	// every recorded checksum holds the engine to.
	t.pc = uint64(r.Intn(1024)) * 64 % e.codeRegions[ci].Size
	t.fork = r
	t.class = int32(ci)
	t.indIn = int32(e.prof.IndirectEvery)

	steps := int(float64(class.Steps)*intensity + 0.5)
	if steps < 1 {
		steps = 1
	}
	instr := int64(float64(class.InstrPerStep) * intensity)
	if instr < 8 {
		instr = 8
	}

	// A plan aliased with a snapshot clone is replaced, not truncated in
	// place (the appends below would stomp the clone's pending entries),
	// by the spare buffer CloneOver handed the thread when that holds the
	// transaction. A new buffer is sized for this transaction outright —
	// every entry the code below can append is counted — so no build
	// regrows it by doubling, and a branch pays for the transactions it
	// runs, not for the largest its parent ever saw.
	accesses := class.Reads + class.Writes
	need := 12 + class.LogRecords + steps*(3+2*accesses+e.prof.PrivatePerOp)
	if t.shared || cap(t.plan) < need {
		var buf []planEntry
		if e.spares != nil {
			buf, e.spares[tid] = e.spares[tid], nil
		}
		if cap(buf) < need {
			buf = make([]planEntry, 0, need)
		}
		t.plan = buf
		t.shared = false
		e.frozen = false
	}
	t.plan = t.plan[:0]
	t.next = 0

	if e.prof.ThinkNS > 0 {
		t.op(OpIO, -1, uint64(e.prof.ThinkNS))
	}

	// Begin: parse/plan.
	t.op(OpCall, 0, 0)
	t.compute(instr / 2)

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
		t.op(OpCall, 0, 0) // per-step helper function (RAS exercise)
		if s == lockStart {
			t.lockOp(OpLockAcq, lockID)
		}
		// Interleave computation between row accesses: the resulting
		// inter-miss instruction gaps are what make reorder-buffer size
		// matter (Experiment 2) — a larger window overlaps more of the
		// next access's miss latency.
		chunk := instr / int64(accesses+1)
		locked := lockID >= 0 && s >= lockStart && s < lockEnd
		t.compute(chunk)
		for i := 0; i < class.Reads; i++ {
			t.walk(class.Tables[r.Intn(len(class.Tables))], false)
			t.compute(chunk)
		}
		for i := 0; i < class.Writes; i++ {
			ti := class.Tables[r.Intn(len(class.Tables))]
			// Unlocked classes still write (engine-level latching is
			// below our model's granularity), but locked classes confine
			// writes to the critical section.
			t.walk(ti, lockID < 0 || locked)
			t.compute(chunk)
		}
		for i := 0; i < e.prof.PrivatePerOp; i++ {
			t.stack()
		}
		if s == ioStep && class.IOMeanNS > 0 {
			dur := int64(r.Exp(float64(class.IOMeanNS)))
			if dur < 1000 {
				dur = 1000
			}
			disk := 1 + r.Intn(max(e.prof.DataDisks, 1))
			t.op(OpIO, int32(disk), uint64(dur))
		}
		if s == lockEnd-1 && lockID >= 0 {
			t.lockOp(OpLockRel, lockID)
		}
		t.op(OpRet, 0, 0)
	}

	// Commit: append log records under the global log lock.
	if e.prof.HasLog && class.LogRecords > 0 {
		t.lockOp(OpLockAcq, 0)
		for i := 0; i < class.LogRecords; i++ {
			t.op(OpStore, 0, LogBase+e.logHead%LogSize)
			e.logHead += uint64(e.prof.LogRecBytes)
		}
		flush := e.prof.FlushEvery > 0 && idx%e.prof.FlushEvery == 0
		if flush && e.prof.GroupCommit {
			t.op(OpIO, 0, uint64(e.prof.FlushNS)) // log disk, lock held
		}
		t.lockOp(OpLockRel, 0)
		if flush && !e.prof.GroupCommit {
			t.op(OpIO, 0, uint64(e.prof.FlushNS))
		}
	}
	t.compute(instr / 2)
	t.op(OpRet, 0, 0)
	t.op(OpTxnEnd, int32(ci), 0)
}
