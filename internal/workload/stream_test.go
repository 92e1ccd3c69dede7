package workload_test

import (
	"fmt"
	"testing"

	"varsim/internal/config"
	"varsim/internal/rng"
	"varsim/internal/workload"
	"varsim/internal/workloads"
)

// pair is a streaming engine and the eager reference it must match.
type pair struct {
	inst workload.Instance
	ref  workload.Reference
}

// cloneOver clones both sides, the engine over spent's storage.
func (p pair) cloneOver(spent workload.Instance) pair {
	return pair{inst: p.inst.CloneOver(spent), ref: p.ref.Clone()}
}

// garbage is what the op NextInto writes into holds before each call:
// every field set, none to a value an engine emits, so a field NextInto
// leaves unwritten shows up as a difference from the reference.
var garbage = workload.Op{Kind: 0xee, N: -7, Addr: ^uint64(0), ID: -7, Site: ^uint32(0), Taken: true, Indirect: true, PC: ^uint64(0)}

// driveAgainstReference advances inst and its eager reference through
// at least ops operations in random thread order — the engines by
// NextInto into one reused Op, refilled with garbage before each call,
// the references by value — and fails on the first op that differs in
// any field. Along the way it clones both sides —
// at random, and right after the ops that mark the interesting places:
// an OpBranch (always inside a compute run), a load that follows a
// compute op (the first op of an index walk or a stack touch, with the
// rest pending) and an OpTxnEnd (the thread is between transactions) —
// and keeps original and clone running, each in its own thread order,
// so a clone that shared or lost any expansion state shows up as a
// divergence on one of the two.
func driveAgainstReference(t *testing.T, inst workload.Instance, ops int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	live := []pair{{inst: inst, ref: workload.NewReference(inst)}}
	threads := inst.NumThreads()
	last := make(map[int]workload.OpKind) // previous op kind of each thread of live[0], the only engine the walk trigger watches
	clones := map[string]int{}
	var got workload.Op
	for n := 0; n < ops; n++ {
		k := r.Intn(len(live))
		p := live[k]
		tid := r.Intn(threads)
		got = garbage
		p.inst.NextInto(tid, &got)
		if want := p.ref.Next(tid); got != want {
			t.Fatalf("op %d (engine %d, thread %d):\n got %+v\nwant %+v", n, k, tid, got, want)
		}
		// Each marked place is cloned at its first few occurrences, so
		// even the workloads with few, long transactions cover it, and
		// now and then after that.
		often := func(where string, oneIn int) bool {
			return clones[where] < 4 || r.Intn(oneIn) == 0
		}
		where := ""
		switch {
		case got.Kind == workload.OpBranch && often("mid compute run", 4000):
			where = "mid compute run"
		case got.Kind == workload.OpLoad && k == 0 && last[tid] == workload.OpCompute && often("mid walk or stack touch", 400):
			where = "mid walk or stack touch"
		case got.Kind == workload.OpTxnEnd && often("between transactions", 4):
			where = "between transactions"
		case r.Intn(20000) == 0:
			where = "random"
		}
		if k == 0 {
			last[tid] = got.Kind
		}
		if where != "" {
			clones[where]++
			// A clone that replaces a live engine is built over it, plans
			// it owned and all, and must still be the fresh clone.
			if len(live) < 4 {
				live = append(live, p.cloneOver(nil))
			} else {
				i := 1 + r.Intn(len(live)-1)
				live[i] = p.cloneOver(live[i].inst)
			}
		}
	}
	t.Logf("%s: %d ops, clones %v", inst.Name(), ops, clones)
	if _, txn := inst.(*workload.TxnEngine); txn {
		for _, where := range []string{"mid compute run", "mid walk or stack touch", "between transactions"} {
			if clones[where] == 0 {
				t.Errorf("no clone taken %s", where)
			}
		}
	}
}

// TestStreamMatchesEagerReference holds the lazily expanded streams of
// all seven workloads to the eager builders they replaced.
func TestStreamMatchesEagerReference(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 4
	for _, name := range workloads.Names() {
		ops := 200_000
		switch name {
		case "ocean":
			// One Ocean phase is ~155 k ops a thread at the partition size
			// the OOO runs use; go far enough that every thread crosses
			// into its second.
			ops = 1_000_000
		case "ecperf", "slashcode":
			// Transactions of 5-6 k ops: long enough for every engine in
			// play to finish some.
			ops = 1_000_000
		}
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				inst, err := workloads.New(name, cfg, seed*0x9e37)
				if err != nil {
					t.Fatal(err)
				}
				driveAgainstReference(t, inst, ops, seed)
			})
		}
	}
}

// TestStreamMatchesEagerReferenceToCompletion runs a small scientific
// program to its end on every thread — TxnEnd on thread 0, Done sticky
// on all — and a transactional profile with the features no stock
// workload turns on: think time, group commit, a code region smaller
// than the start-PC range and than one compute chunk, no branch or
// site counts, single-block rows.
func TestStreamMatchesEagerReferenceToCompletion(t *testing.T) {
	sci := workload.SciProfile{
		Name: "sci", Threads: 4, Phases: 3, InstrPerPhase: 1000,
		PartitionBytes: 4096, SweepStride: 64, SharedBytes: 8192,
		SharedReads: 8, SharedTheta: 0.5, BoundaryRows: 2, WriteFrac: 0.5,
		CodeBytes: 100,
	}
	for seed := uint64(1); seed <= 3; seed++ {
		driveAgainstReference(t, workload.NewSciEngine(sci, seed), 20_000, seed)
	}
	txn := workload.TxnProfile{
		Name: "odd", Threads: 3,
		Tables: []workload.Table{
			{Name: "a", Rows: 100, RowBytes: 64, Theta: 0.6},
			{Name: "b", Rows: 7, RowBytes: 200, Theta: 0.2},
		},
		Classes: []workload.TxnClass{
			{Name: "x", Weight: 1, Steps: 2, InstrPerStep: 900, Reads: 1, Writes: 2,
				Tables: []int{0, 1}, LockFamily: 0, LockedFrac: 0.5, LogRecords: 1,
				IOProb: 0.5, IOMeanNS: 100, CodeBytes: 24},
			{Name: "y", Weight: 2, Steps: 1, InstrPerStep: 1, Reads: 0, Writes: 0,
				Tables: []int{1}, LockFamily: -1, Partition: true, CodeBytes: 4096},
		},
		LockFamilies: []int{2},
		HasLog:       true, LogRecBytes: 48, FlushEvery: 2, FlushNS: 500, GroupCommit: true,
		ThinkNS: 10, PrivatePerOp: 3, IndirectEvery: 1,
	}
	for seed := uint64(1); seed <= 3; seed++ {
		driveAgainstReference(t, workload.NewTxnEngine(txn, seed), 100_000, seed)
	}
}

// TestNextIntoAllocatesNothing: once a thread's plan buffer has grown to
// its transactions, writing an op in place allocates nothing, on either
// engine — the op is built in the caller's storage, not returned
// through the heap.
func TestNextIntoAllocatesNothing(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 4
	for _, name := range workloads.Names() {
		inst, err := workloads.New(name, cfg, 0x9e37)
		if err != nil {
			t.Fatal(err)
		}
		threads := inst.NumThreads()
		var op workload.Op
		tid := 0
		step := func() {
			inst.NextInto(tid, &op)
			tid = (tid + 1) % threads
		}
		for range 200_000 {
			step()
		}
		if allocs := testing.AllocsPerRun(20_000, step); allocs != 0 {
			t.Errorf("%s (%T): NextInto allocates %v times an op", name, inst, allocs)
		}
	}
}
