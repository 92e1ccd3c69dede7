package workload

import (
	"fmt"

	"varsim/internal/rng"
)

// SciProfile configures the barrier-synchronized scientific workload
// engine that stands in for the SPLASH-2 codes (Barnes-Hut, Ocean).
// One thread runs per processor; the whole program counts as a single
// transaction (Table 3 of the paper lists #transactions = 1 for both).
type SciProfile struct {
	Name          string
	Threads       int
	Phases        int   // barrier-delimited phases (timesteps x sub-phases)
	InstrPerPhase int64 // compute per thread per phase
	// Private partition streamed each phase (Ocean-style grid sweep).
	PartitionBytes int64
	SweepStride    int64 // bytes between consecutive touches (64 = every block)
	// Shared structure read each phase (Barnes-style tree walk).
	SharedBytes  int64
	SharedReads  int
	SharedTheta  float64
	BoundaryRows int // neighbour-partition blocks read per phase (Ocean)
	WriteFrac    float64
	CodeBytes    int64
}

// Validate checks internal consistency.
func (p *SciProfile) Validate() error {
	if p.Threads <= 0 || p.Phases <= 0 {
		return fmt.Errorf("scientific workload %s: need threads and phases", p.Name)
	}
	if p.PartitionBytes < 0 || p.SharedBytes < 0 {
		return fmt.Errorf("scientific workload %s: negative region size", p.Name)
	}
	return nil
}

// sciStage is where a thread stands inside its current phase.
type sciStage uint8

const (
	// The five possible ops of one sweep touch, in emission order.
	sciLoad sciStage = iota
	sciStore
	sciShared
	sciCompute
	sciBranch
	// Boundary exchange: one block of the next partition, one of the
	// previous, BoundaryRows times.
	sciBoundaryNext
	sciBoundaryPrev
	// Phase-end reduction under the global lock, then the barrier.
	sciLockAcq
	sciReduce
	sciLockRel
	sciBarrier
	// Program end.
	sciTxnEnd
	sciDone
)

// sciThread is one worker thread's generator state: a position
// (phase, stage, i) in the program and the stream that decides the ops
// there. Plain data — copying the struct checkpoints the thread.
type sciThread struct {
	rng   rng.Stream
	phase int
	i     int    // sweep touch, or boundary row, within the phase
	pc    uint64 // PC cursor: an offset into the code region, kept below its size
	stage sciStage
}

// SciEngine implements Instance for barrier-phase scientific programs.
//
// A phase is one loop over the partition's touches with every random
// draw made on the thread's own stream in emission order, so NextInto
// generates each op from the thread's position when it is asked for:
// no phase is ever expanded into a buffer, and the stream is the one
// the eager expansion would give (the reference builder in the
// package's tests is exactly that). Every op moves the PC cursor on by
// 4 bytes, from (phase mod 64)·256 at the start of a phase.
type SciEngine struct {
	prof    SciProfile
	seed    uint64
	threads []sciThread

	// Fixed at construction and shared, never copied, by clones.
	shared        Region
	parts         []Region
	code          Region
	stride        uint64 // bytes between consecutive sweep touches
	touches       int    // sweep touches per phase
	instrPerTouch int64
	sharedEvery   int // one read of the shared structure every this many touches; 0 = none
}

// NewSciEngine builds a scientific workload instance.
func NewSciEngine(prof SciProfile, seed uint64) *SciEngine {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	e := &SciEngine{prof: prof, seed: seed}
	base := TableBase
	e.shared = Region{Base: base, Size: uint64(max(prof.SharedBytes, 64))}
	base += e.shared.Size
	partSize := uint64(max(prof.PartitionBytes, 64))
	for i := 0; i < prof.Threads; i++ {
		e.parts = append(e.parts, Region{Base: base, Size: partSize})
		base += partSize
	}
	cs := uint64(prof.CodeBytes)
	if cs == 0 {
		cs = 128 << 10
	}
	e.code = Region{Base: CodeBase, Size: cs}
	// Compute is interleaved with the sweep so misses spread through the
	// phase rather than bunching at its start.
	e.stride = uint64(max(prof.SweepStride, 64))
	e.touches = max(int(partSize/e.stride), 1)
	e.instrPerTouch = max(prof.InstrPerPhase/int64(e.touches), 1)
	if prof.SharedReads > 0 {
		e.sharedEvery = max(e.touches/prof.SharedReads, 1)
	}
	e.threads = make([]sciThread, prof.Threads)
	for i := range e.threads {
		e.threads[i] = sciThread{rng: rng.New(rng.Derive(seed, 0x2000+uint64(i)))}
	}
	return e
}

// Name implements Instance.
func (e *SciEngine) Name() string { return e.prof.Name }

// NumThreads implements Instance.
func (e *SciEngine) NumThreads() int { return e.prof.Threads }

// NumLocks implements Instance.
func (e *SciEngine) NumLocks() int { return 1 } // a global reduction lock

// NumSpinLocks implements Instance: the reduction lock is a spin latch.
func (e *SciEngine) NumSpinLocks() int { return 1 }

// NumBarriers implements Instance.
func (e *SciEngine) NumBarriers() int { return 1 }

// CloneOver implements Instance: the per-thread positions and streams
// are copied, into spent's array when spent is a SciEngine of as many
// threads, and the layout is shared.
func (e *SciEngine) CloneOver(spent Instance) Instance {
	cp, _ := spent.(*SciEngine)
	if cp == nil || cp == e || len(cp.threads) != len(e.threads) {
		cp = new(SciEngine)
	}
	threads := cp.threads[:0]
	*cp = *e
	cp.threads = append(threads, e.threads...)
	return cp
}

// nextPC returns the thread's PC and moves the cursor to the next
// instruction. Ops take it as a field of their literal, so each is built
// once, in the caller's Op.
func (e *SciEngine) nextPC(t *sciThread) uint64 {
	pc := e.code.Base + t.pc
	t.pc = e.code.Advance(t.pc, 4)
	return pc
}

// Next implements Instance: NextInto into a fresh Op.
func (e *SciEngine) Next(tid int) Op {
	var op Op
	e.NextInto(tid, &op)
	return op
}

// NextInto implements Instance: it walks the thread's position forward
// to the next op the program has there and writes it into *op. Stages
// that turn out to emit nothing (a store the coin declined, a touch
// with no shared read or back-edge) fall through to the next.
func (e *SciEngine) NextInto(tid int, op *Op) {
	t := &e.threads[tid]
	p := &e.prof
	for {
		switch t.stage {
		case sciLoad:
			if t.i >= e.touches {
				t.i = 0
				t.stage = sciBoundaryNext
				continue
			}
			t.stage = sciStore
			// A sweep offset needs no wrap: i < touches = Size/stride.
			*op = Op{Kind: OpLoad, Addr: e.parts[tid].Base + uint64(t.i)*e.stride, PC: e.nextPC(t)}
			return
		case sciStore:
			t.stage = sciShared
			if t.rng.Bool(p.WriteFrac) {
				*op = Op{Kind: OpStore, Addr: e.parts[tid].Base + uint64(t.i)*e.stride, PC: e.nextPC(t)}
				return
			}
		case sciShared:
			t.stage = sciCompute
			if e.sharedEvery > 0 && t.i%e.sharedEvery == 0 {
				soff := uint64(t.rng.Zipf(int(e.shared.Size/64), p.SharedTheta)) * 64
				*op = Op{Kind: OpLoad, Addr: e.shared.At(soff), PC: e.nextPC(t)}
				return
			}
		case sciCompute:
			t.stage = sciBranch
			*op = Op{Kind: OpCompute, N: e.instrPerTouch, PC: e.nextPC(t)}
			return
		case sciBranch:
			i := t.i
			t.i++
			t.stage = sciLoad
			if i%4 == 3 {
				// Loop back-edges: highly predictable.
				site := uint32(0x4000 + i%128)
				*op = Op{Kind: OpBranch, Site: site, Taken: t.rng.Bool(0.97), PC: e.nextPC(t)}
				return
			}
		case sciBoundaryNext:
			// Boundary exchange: read neighbours' edge blocks (Ocean-style
			// producer/consumer sharing).
			if t.i >= p.BoundaryRows {
				t.stage = sciLockAcq
				continue
			}
			t.stage = sciBoundaryPrev
			nb := e.parts[(tid+1)%p.Threads]
			*op = Op{Kind: OpLoad, Addr: nb.At(uint64(t.i) * 64), PC: e.nextPC(t)}
			return
		case sciBoundaryPrev:
			pv := e.parts[(tid+p.Threads-1)%p.Threads]
			*op = Op{Kind: OpLoad, Addr: pv.At(pv.Size - 64 - uint64(t.i)*64), PC: e.nextPC(t)}
			t.i++
			t.stage = sciBoundaryNext
			return
		case sciLockAcq:
			// Phase-end reduction under the global lock.
			t.stage = sciReduce
			*op = Op{Kind: OpLockAcq, ID: 0, Addr: LockWordAddr(0), PC: e.nextPC(t)}
			return
		case sciReduce:
			t.stage = sciLockRel
			*op = Op{Kind: OpStore, Addr: e.shared.At(0), PC: e.nextPC(t)}
			return
		case sciLockRel:
			t.stage = sciBarrier
			*op = Op{Kind: OpLockRel, ID: 0, Addr: LockWordAddr(0), PC: e.nextPC(t)}
			return
		case sciBarrier:
			*op = Op{Kind: OpBarrier, ID: 0, PC: e.nextPC(t)}
			t.phase++
			t.i = 0
			t.pc = uint64(t.phase%64) * 256 % e.code.Size
			switch {
			case t.phase < p.Phases:
				t.stage = sciLoad
			case tid == 0:
				t.stage = sciTxnEnd
			default:
				t.stage = sciDone
			}
			return
		case sciTxnEnd:
			// Program end: thread 0 reports the single whole-program
			// "transaction"; everyone terminates.
			t.stage = sciDone
			*op = Op{Kind: OpTxnEnd, PC: e.code.At(0)}
			return
		case sciDone:
			*op = Op{Kind: OpDone}
			return
		default:
			panic(fmt.Sprintf("workload: scientific thread at unknown stage %d", t.stage))
		}
	}
}
