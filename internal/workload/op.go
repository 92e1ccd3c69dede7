// Package workload defines the abstract multi-threaded workload model
// the simulator executes, and a configurable transactional workload
// engine that stands in for the paper's commercial benchmarks.
//
// A workload is a set of threads, each producing a deterministic stream
// of operations (compute blocks, loads/stores, lock acquire/release,
// blocking I/O, barriers, transaction boundaries). Crucially, *which*
// transaction a thread executes next comes from a shared feed claimed at
// run time, so the assignment of work to threads — and therefore cache
// affinity, lock order and scheduling — depends on execution timing.
// That dependency is what turns nanosecond-scale perturbations into the
// divergent execution paths the paper studies.
package workload

import "varsim/internal/digest"

// OpKind enumerates the operations a thread can issue.
type OpKind uint8

const (
	// OpCompute executes N instructions of pure computation.
	OpCompute OpKind = iota
	// OpLoad reads Addr through the data cache hierarchy.
	OpLoad
	// OpStore writes Addr (requires exclusive coherence permission).
	OpStore
	// OpLockAcq atomically acquires lock ID whose lock word is Addr.
	// Contended acquires spin briefly, then block in the OS.
	OpLockAcq
	// OpLockRel releases lock ID (writes Addr, wakes a waiter).
	OpLockRel
	// OpTxnEnd marks the completion of one transaction of class ID.
	OpTxnEnd
	// OpIO blocks the thread for N nanoseconds of service on disk ID.
	OpIO
	// OpBarrier blocks until all participants arrive at barrier ID.
	OpBarrier
	// OpBranch is a conditional branch at site Site with outcome Taken
	// (consumed by the out-of-order core's predictors; one instruction).
	OpBranch
	// OpCall pushes a return address (return-address-stack modelling).
	OpCall
	// OpRet pops a return address; Indirect mispredictions flush.
	OpRet
	// OpYield voluntarily releases the processor.
	OpYield
	// OpDone terminates the thread.
	OpDone
)

func (k OpKind) String() string {
	names := [...]string{
		"compute", "load", "store", "lock-acq", "lock-rel", "txn-end",
		"io", "barrier", "branch", "call", "ret", "yield", "done",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "invalid"
}

// Op is one operation in a thread's instruction stream. Ops are plain
// data, written by NextInto as they are asked for and never stored by
// the engines; the machine has each written straight into its CPU's
// pending slot, and copies the few it parks by value.
type Op struct {
	Kind     OpKind
	N        int64  // instructions (compute) or nanoseconds (I/O)
	Addr     uint64 // memory/lock-word address
	ID       int32  // lock, barrier, disk, or transaction-class id
	Site     uint32 // branch site (predictor index)
	Taken    bool   // branch outcome
	Indirect bool   // indirect branch (cascaded predictor, not YAGS)
	PC       uint64 // code address, for instruction-fetch modelling
}

// Instance is a live, runnable workload: all thread generators plus any
// shared state (the transaction feed). Instances are single-threaded
// from the simulator's perspective — NextInto is only called inside
// event handlers — and must be copyable via CloneOver for checkpoints.
// Generators hold positions, not instruction streams: a thread's state
// is a few words of plain data (random streams, cursors, the macro or
// stage in progress), so CloneOver copies one small struct per thread and
// the clone then generates the same ops the original would have.
type Instance interface {
	// Name identifies the workload ("oltp", "apache", ...).
	Name() string
	// NumThreads is the total number of user threads.
	NumThreads() int
	// NumLocks is how many OS-visible locks the workload uses.
	NumLocks() int
	// NumSpinLocks says how many of the first lock ids are spin latches:
	// waiters spin with backoff and never block in the OS (database
	// latches, e.g. on the log tail). The remaining locks are blocking
	// mutexes with FIFO handoff.
	NumSpinLocks() int
	// NumBarriers is how many barriers the workload uses.
	NumBarriers() int
	// NextInto produces the next operation for thread tid, advancing its
	// generator (and possibly shared state such as the transaction feed),
	// and writes it into *op, every field of it: nothing *op held before
	// is read or kept. It is the form the machine uses, with op its CPU's
	// pending slot, so an op is built where it will be executed and never
	// copied. The stream is identical regardless of the processor model
	// consuming it (the simple core executes branch ops in one cycle), so
	// the two models see the same workload. An instance may also offer a
	// bulk form for the stretches a consumer need not see op by op (see
	// RunStepper); consuming ops through it leaves the instance exactly
	// where the same number of NextInto calls would have.
	NextInto(tid int, op *Op)
	// Next is the by-value wrapper of NextInto, for callers that want
	// the op as a value: the same stream, one op per call.
	Next(tid int) Op
	// CloneOver copies the instance for machine snapshots: the two then
	// advance independently. What never changes after construction may be
	// shared outright, and buffers copy-on-write (see Freezer). The copy
	// is built in the storage of spent, an instance nothing will use
	// again, when spent is of the same engine and thread count — its
	// per-thread array, and the buffers it owns as spares — and from
	// scratch when spent is nil or of another shape. Nothing of spent
	// but capacity is read: the copy is the one CloneOver(nil) returns.
	CloneOver(spent Instance) Instance
}

// RunStepper is the bulk form of NextInto (and Next), implemented by
// instances whose streams hold compute runs — stretches of OpCompute and
// OpBranch ops with nothing else between — for a consumer that charges
// such an op its instruction count and reads nothing else of it. The
// simple core is one: it fetches the op's PC and adds N, or 1 for a
// branch, to its clock; the OOO core, whose predictors must see every
// branch, is not. Of the engines here only TxnEngine has runs;
// SciEngine emits its compute and branch ops singly through NextInto.
//
// The two methods are used as a pair in place of one or more NextInto
// (or Next) calls: RunPC says whether the thread's next op is a run op
// and where it is fetched from, and StepRun, called only after RunPC
// said yes, consumes that op and as many of the run's following ops as
// the caller could execute without looking up. The instance is then in
// the state that many NextInto (or Next) calls would have left — every
// draw a skipped branch makes (site, outcome, indirect target) is made,
// in order — so bulk steps and NextInto (or Next) calls interleave
// freely on one thread and HashProgress cannot tell them apart.
type RunStepper interface {
	// RunPC returns the PC of thread tid's next op when that op is part
	// of a compute run. It is read-only: when it reports false, or the
	// caller takes the op singly after all, NextInto (or Next) returns
	// that same op.
	RunPC(tid int) (pc uint64, ok bool)
	// StepRun consumes the run op RunPC announced, then each further op
	// of the run while this call has consumed fewer than limit
	// instructions and the op's PC lies in the same 1<<blockBits-byte
	// block as the first's; the run's end stops it at the latest. The
	// first op is consumed whatever limit is. It returns the instructions
	// consumed: N for a compute op, one for a branch.
	StepRun(tid int, blockBits uint, limit int64) int64
}

// Hasher is implemented by workload instances that can fold their
// progress state into an interval digest (internal/digest): shared-feed
// position and every word of per-thread generator state.
// Optional — instances that don't implement it simply contribute
// nothing to the workload digest component beyond what the machine
// tracks itself.
type Hasher interface {
	// HashProgress folds the instance's progress state into h. It must
	// be read-only: digesting a workload must not advance it.
	HashProgress(h *digest.Hash)
}

// Freezer is implemented by instances whose CloneOver shares mutable
// buffers copy-on-write — of the engines here only TxnEngine, whose
// threads each hold their current transaction's plan; SciEngine has no
// buffer and copies all its state in CloneOver. Freeze relinquishes
// buffer ownership so a frozen instance can be cloned from several
// goroutines at once (CloneOver on a frozen instance writes only the
// copy); an instance that has run since its last Freeze must be
// re-frozen before concurrent cloning. Instances without Freeze are
// assumed to copy everything mutable in CloneOver, for which no freeze
// step is needed.
type Freezer interface {
	Freeze()
}

// Materializer is the eager endpoint of the copy-on-write pair:
// Materialize copies any buffers still shared with another instance,
// making this one a full deep copy.
type Materializer interface {
	Materialize()
}

// Region is a contiguous range of the simulated physical address space.
type Region struct {
	Base uint64
	Size uint64
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// At returns the address at offset off, wrapped into the region.
func (r Region) At(off uint64) uint64 {
	return r.Base + off%r.Size
}

// Advance moves a cursor — an offset already wrapped into the region —
// n bytes on and wraps it again. Base plus the cursor is what At gives
// for the unwrapped running total, but the wrap is a compare on all but
// the rare step that crosses the region's end, not a 64-bit remainder
// on every one: the engines' PC cursors take a step per op.
func (r Region) Advance(off, n uint64) uint64 {
	off += n
	if off >= r.Size {
		off %= r.Size
	}
	return off
}
