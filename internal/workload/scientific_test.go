package workload

import "testing"

func sciProfile() SciProfile {
	return SciProfile{
		Name:           "sci",
		Threads:        4,
		Phases:         3,
		InstrPerPhase:  1000,
		PartitionBytes: 4096,
		SweepStride:    64,
		SharedBytes:    8192,
		SharedReads:    8,
		SharedTheta:    0.5,
		BoundaryRows:   2,
		WriteFrac:      0.5,
	}
}

func TestSciPhaseStructure(t *testing.T) {
	e := NewSciEngine(sciProfile(), 1)
	if e.NumBarriers() != 1 || e.NumLocks() != 1 || e.NumSpinLocks() != 1 {
		t.Fatal("resource counts wrong")
	}
	barriers := make([]int, e.NumThreads())
	done := make([]bool, e.NumThreads())
	txnEnds := 0
	for running := true; running; {
		running = false
		for tid := 0; tid < e.NumThreads(); tid++ {
			if done[tid] {
				continue
			}
			running = true
			op := e.Next(tid)
			switch op.Kind {
			case OpBarrier:
				barriers[tid]++
			case OpTxnEnd:
				txnEnds++
			case OpDone:
				done[tid] = true
			}
		}
	}
	for tid, b := range barriers {
		if b != 3 {
			t.Errorf("thread %d passed %d barriers, want 3", tid, b)
		}
	}
	if txnEnds != 1 {
		t.Errorf("scientific program reported %d transactions, want exactly 1", txnEnds)
	}
}

func TestSciDoneIsSticky(t *testing.T) {
	e := NewSciEngine(sciProfile(), 2)
	for i := 0; i < 100000; i++ {
		if e.Next(1).Kind == OpDone {
			break
		}
	}
	for i := 0; i < 10; i++ {
		if e.Next(1).Kind != OpDone {
			t.Fatal("finished thread produced non-Done op")
		}
	}
}

func TestSciPartitionsDisjoint(t *testing.T) {
	e := NewSciEngine(sciProfile(), 3)
	for i := 0; i < len(e.parts); i++ {
		for j := i + 1; j < len(e.parts); j++ {
			a, b := e.parts[i], e.parts[j]
			if a.Base < b.Base+b.Size && b.Base < a.Base+a.Size {
				t.Fatalf("partitions %d and %d overlap", i, j)
			}
		}
	}
}

func TestSciBoundarySharing(t *testing.T) {
	e := NewSciEngine(sciProfile(), 4)
	// Thread 1 must read from its neighbours' partitions at least once.
	other := 0
	own := e.parts[1]
	for i := 0; i < 10000; i++ {
		op := e.Next(1)
		if op.Kind == OpDone {
			break
		}
		if op.Kind == OpLoad && !own.Contains(op.Addr) && !e.shared.Contains(op.Addr) {
			other++
		}
	}
	if other == 0 {
		t.Fatal("no boundary reads from neighbour partitions")
	}
}

func TestSciCloneContinues(t *testing.T) {
	e := NewSciEngine(sciProfile(), 5)
	for i := 0; i < 57; i++ {
		e.Next(i % 4)
	}
	c := e.CloneOver(nil).(*SciEngine)
	for i := 0; i < 500; i++ {
		tid := i % 4
		if e.Next(tid) != c.Next(tid) {
			t.Fatalf("clone diverged at %d", i)
		}
	}
}

func TestSciValidation(t *testing.T) {
	p := sciProfile()
	p.Threads = 0
	if p.Validate() == nil {
		t.Error("zero threads accepted")
	}
	p = sciProfile()
	p.PartitionBytes = -1
	if p.Validate() == nil {
		t.Error("negative partition accepted")
	}
}
