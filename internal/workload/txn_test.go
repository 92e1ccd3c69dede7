package workload

import (
	"testing"
	"testing/quick"
)

func testProfile() TxnProfile {
	return TxnProfile{
		Name:    "test",
		Threads: 8,
		Tables: []Table{
			{Name: "a", Rows: 1024, RowBytes: 128, Theta: 0.6},
			{Name: "b", Rows: 512, RowBytes: 64, Theta: 0.7},
		},
		Classes: []TxnClass{
			{Name: "rw", Weight: 70, Steps: 4, InstrPerStep: 100, Reads: 2, Writes: 1,
				Tables: []int{0, 1}, LockFamily: 0, LockedFrac: 0.5, LogRecords: 2,
				IOProb: 0.2, IOMeanNS: 5000},
			{Name: "ro", Weight: 30, Steps: 3, InstrPerStep: 80, Reads: 3, Writes: 0,
				Tables: []int{0}, LockFamily: -1},
		},
		LockFamilies:  []int{16},
		HasLog:        true,
		LogRecBytes:   64,
		FlushEvery:    8,
		FlushNS:       1000,
		LogLatch:      true,
		DataDisks:     2,
		PrivatePerOp:  1,
		BranchEvery:   6,
		BranchSites:   16,
		IndirectEvery: 9,
	}
}

func drainTxn(t *testing.T, e *TxnEngine, tid int) []Op {
	t.Helper()
	var ops []Op
	for i := 0; i < 100000; i++ {
		op := e.Next(tid)
		ops = append(ops, op)
		if op.Kind == OpTxnEnd {
			return ops
		}
	}
	t.Fatal("transaction never ended")
	return nil
}

func TestTxnStreamWellFormed(t *testing.T) {
	e := NewTxnEngine(testProfile(), 42)
	for txn := 0; txn < 50; txn++ {
		tid := txn % e.NumThreads()
		ops := drainTxn(t, e, tid)
		lockDepth := map[int32]int{}
		callDepth := 0
		for _, op := range ops {
			switch op.Kind {
			case OpLockAcq:
				lockDepth[op.ID]++
				if lockDepth[op.ID] > 1 {
					t.Fatalf("txn %d: recursive acquire of lock %d", txn, op.ID)
				}
				if op.Addr != LockWordAddr(op.ID) {
					t.Fatalf("lock word address mismatch for lock %d", op.ID)
				}
			case OpLockRel:
				lockDepth[op.ID]--
				if lockDepth[op.ID] < 0 {
					t.Fatalf("txn %d: release without acquire of lock %d", txn, op.ID)
				}
			case OpCall:
				callDepth++
			case OpRet:
				callDepth--
				if callDepth < 0 {
					t.Fatalf("txn %d: unbalanced returns", txn)
				}
			case OpIO:
				if op.N <= 0 {
					t.Fatalf("txn %d: non-positive IO duration", txn)
				}
			case OpCompute:
				if op.N <= 0 {
					t.Fatalf("txn %d: non-positive compute block", txn)
				}
			}
		}
		for id, d := range lockDepth {
			if d != 0 {
				t.Fatalf("txn %d: lock %d held at commit", txn, id)
			}
		}
		if callDepth != 0 {
			t.Fatalf("txn %d: unbalanced calls (%d)", txn, callDepth)
		}
	}
}

func TestNoLockNesting(t *testing.T) {
	// District lock and log latch must never nest (deadlock freedom):
	// the log latch is only acquired after all family locks are released.
	e := NewTxnEngine(testProfile(), 43)
	for txn := 0; txn < 80; txn++ {
		ops := drainTxn(t, e, txn%e.NumThreads())
		held := map[int32]bool{}
		for _, op := range ops {
			switch op.Kind {
			case OpLockAcq:
				if len(held) != 0 {
					t.Fatalf("txn %d: acquire of %d while holding %v", txn, op.ID, held)
				}
				held[op.ID] = true
			case OpLockRel:
				delete(held, op.ID)
			}
		}
	}
}

func TestFeedSharedAcrossThreads(t *testing.T) {
	e := NewTxnEngine(testProfile(), 44)
	drainTxn(t, e, 0)
	drainTxn(t, e, 3)
	drainTxn(t, e, 5)
	if e.feed != 3 {
		t.Fatalf("feed index = %d after three txns, want 3", e.feed)
	}
}

func TestDeterministicStream(t *testing.T) {
	a := NewTxnEngine(testProfile(), 7)
	b := NewTxnEngine(testProfile(), 7)
	for i := 0; i < 5000; i++ {
		tid := i % a.NumThreads()
		if a.Next(tid) != b.Next(tid) {
			t.Fatalf("streams diverged at op %d", i)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := NewTxnEngine(testProfile(), 7)
	b := NewTxnEngine(testProfile(), 8)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next(0) == b.Next(0) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("different workload seeds produced identical streams")
	}
}

func TestCloneContinuesIdentically(t *testing.T) {
	e := NewTxnEngine(testProfile(), 9)
	for i := 0; i < 137; i++ {
		e.Next(i % e.NumThreads())
	}
	c := e.CloneOver(nil)
	for i := 0; i < 2000; i++ {
		tid := i % e.NumThreads()
		if e.Next(tid) != c.(*TxnEngine).Next(tid) {
			t.Fatalf("clone diverged at op %d", i)
		}
	}
}

func TestCloneIsolated(t *testing.T) {
	e := NewTxnEngine(testProfile(), 9)
	c := e.CloneOver(nil).(*TxnEngine)
	for i := 0; i < 500; i++ {
		c.Next(0)
	}
	if e.feed != 0 {
		t.Fatal("clone advanced original's feed")
	}
}

// TestCloneOverNeverWritesShared: a plan a spent engine still shares
// with its parent is not the spent engine's to give away. Built over a
// clone that never ran, whose every plan is the parent's, CloneOver must
// leave each thread to allocate its next plan, so running the new engine
// through several transactions a thread leaves the parent's stream as it
// was; a plan the spent engine did write may be reused.
func TestCloneOverNeverWritesShared(t *testing.T) {
	e := NewTxnEngine(testProfile(), 9)
	for i := 0; i < 137; i++ {
		e.Next(i % e.NumThreads())
	}
	ref := e.CloneOver(nil).(*TxnEngine)
	ref.Materialize()
	c := e.CloneOver(e.CloneOver(nil)).(*TxnEngine)
	for i := 0; i < 20000; i++ {
		c.Next(i % c.NumThreads())
	}
	for i := 0; i < 2000; i++ {
		tid := i % e.NumThreads()
		if got, want := e.Next(tid), ref.Next(tid); got != want {
			t.Fatalf("op %d: the parent's stream changed under a clone built over its sibling:\n got %+v\nwant %+v", i, got, want)
		}
	}
	// The other side: over a spent engine that built its own plans, the
	// next clone's transactions are written into them.
	spent := e.CloneOver(nil).(*TxnEngine)
	for i := 0; i < 20000; i++ {
		spent.Next(i % spent.NumThreads())
	}
	owned := 0
	for i := range spent.threads {
		if !spent.threads[i].shared {
			owned++
		}
	}
	if next := e.CloneOver(spent).(*TxnEngine); owned == 0 || next != spent || len(next.spares) != len(next.threads) {
		t.Fatalf("CloneOver over a spent engine owning %d plans kept no spares", owned)
	}
}

func TestAddressesInRegions(t *testing.T) {
	e := NewTxnEngine(testProfile(), 10)
	lo := TableBase
	var hi uint64
	for _, r := range e.tableRegions {
		if r.Base+r.Size > hi {
			hi = r.Base + r.Size
		}
	}
	for i := 0; i < 20000; i++ {
		op := e.Next(i % e.NumThreads())
		switch op.Kind {
		case OpLoad, OpStore:
			ok := (op.Addr >= lo && op.Addr < hi) || // tables
				(op.Addr >= LogBase && op.Addr < LogBase+LogSize) ||
				(op.Addr >= LockBase && op.Addr < StackBase) ||
				(op.Addr >= StackBase && op.Addr < TableBase)
			if !ok {
				t.Fatalf("address %#x outside known regions", op.Addr)
			}
		}
		if op.PC != 0 && (op.PC < CodeBase || op.PC >= CodeBase+CodeSize) {
			t.Fatalf("PC %#x outside code region", op.PC)
		}
	}
}

func TestPartitionConfinesThreads(t *testing.T) {
	prof := testProfile()
	prof.HasLog = false
	prof.Classes = []TxnClass{{
		Name: "p", Weight: 1, Steps: 3, InstrPerStep: 60, Reads: 2, Writes: 1,
		Tables: []int{0}, LockFamily: -1, Partition: true,
	}}
	e := NewTxnEngine(prof, 11)
	reg := e.tableRegions[0]
	rowsPer := prof.Tables[0].Rows / int64(prof.Threads)
	seen := map[int]map[int64]bool{}
	for i := 0; i < 30000; i++ {
		tid := i % e.NumThreads()
		op := e.Next(tid)
		if (op.Kind == OpLoad || op.Kind == OpStore) && reg.Contains(op.Addr) {
			off := op.Addr - reg.Base
			row := int64(off) / prof.Tables[0].RowBytes
			// Skip root/interior index touches (first 1024 blocks + root).
			if off < 64*1024+1024*64 {
				continue
			}
			if seen[tid] == nil {
				seen[tid] = map[int64]bool{}
			}
			seen[tid][row/rowsPer] = true
		}
	}
	for tid, parts := range seen {
		for p := range parts {
			if p != int64(tid) {
				t.Fatalf("thread %d touched partition %d", tid, p)
			}
		}
	}
}

func TestPhaseModelIntensity(t *testing.T) {
	p := PhaseModel{TrendAmp: 0.5, TrendScale: 1000}
	if p.Intensity(0) != 1.0 {
		t.Errorf("intensity(0) = %v, want 1", p.Intensity(0))
	}
	if p.Intensity(10000) < 1.45 {
		t.Errorf("trend should saturate near 1.5, got %v", p.Intensity(10000))
	}
	// Monotone for a pure positive trend.
	prev := 0.0
	for i := int64(0); i < 5000; i += 100 {
		v := p.Intensity(i)
		if v < prev {
			t.Fatalf("pure trend not monotone at %d", i)
		}
		prev = v
	}
	// Bursts multiply.
	pb := PhaseModel{BurstEvery: 100, BurstLen: 10, BurstMult: 2}
	if pb.Intensity(5) != 2 || pb.Intensity(50) != 1 {
		t.Errorf("burst windows wrong: %v %v", pb.Intensity(5), pb.Intensity(50))
	}
	// Negative trend floors at 0.05.
	pn := PhaseModel{TrendAmp: -5, TrendScale: 10}
	if pn.Intensity(1000) != 0.05 {
		t.Errorf("intensity floor broken: %v", pn.Intensity(1000))
	}
}

func TestPhaseModelCycle(t *testing.T) {
	p := PhaseModel{CycleAmp: 0.1, CyclePer: 100}
	if err := quick.Check(func(idx uint16) bool {
		v := p.Intensity(int64(idx))
		return v >= 0.9-1e-9 && v <= 1.1+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProfileValidation(t *testing.T) {
	bad := testProfile()
	bad.Threads = 0
	if bad.Validate() == nil {
		t.Error("zero threads accepted")
	}
	bad = testProfile()
	bad.Classes[0].LockFamily = 5
	if bad.Validate() == nil {
		t.Error("out-of-range lock family accepted")
	}
	bad = testProfile()
	bad.Classes[0].Tables = []int{9}
	if bad.Validate() == nil {
		t.Error("out-of-range table accepted")
	}
	bad = testProfile()
	bad.Classes = nil
	if bad.Validate() == nil {
		t.Error("empty class list accepted")
	}
	bad = testProfile()
	bad.Classes[0].Weight = 0
	if bad.Validate() == nil {
		t.Error("zero weight accepted")
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{Base: 100, Size: 50}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Error("Contains wrong")
	}
	if r.At(0) != 100 || r.At(49) != 149 || r.At(50) != 100 {
		t.Error("At wrapping wrong")
	}
	// A cursor stepped with Advance tracks At of the running total, for
	// steps shorter and longer than the region.
	var cur, total uint64
	for _, n := range []uint64{4, 45, 1, 50, 49, 230, 0, 7} {
		cur, total = r.Advance(cur, n), total+n
		if r.Base+cur != r.At(total) {
			t.Errorf("Advance by %d: cursor at %d, At(%d) = %d", n, r.Base+cur, total, r.At(total))
		}
	}
	if LockWordAddr(2) != LockBase+128 {
		t.Error("LockWordAddr wrong")
	}
	s0, s1 := StackRegion(0), StackRegion(1)
	if s0.Base+s0.Size != s1.Base {
		t.Error("stack regions must be adjacent and disjoint")
	}
}

func TestOpKindString(t *testing.T) {
	for k := OpCompute; k <= OpDone; k++ {
		if k.String() == "invalid" {
			t.Errorf("op kind %d unnamed", k)
		}
	}
	if OpKind(200).String() != "invalid" {
		t.Error("out-of-range kind should be invalid")
	}
}
