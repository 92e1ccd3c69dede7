package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// peek returns the reference engine's next op for the thread without
// consuming it, or false when the thread's transaction is used up — the
// reference claims the next one only in Next, as the engine does.
func (e *eagerTxn) peek(tid int) (Op, bool) {
	t := &e.threads[tid]
	if t.pos >= len(t.ops) {
		return Op{}, false
	}
	return t.ops[t.pos], true
}

// opInstrs is what the simple core charges an op of a compute run.
func opInstrs(op Op) int64 {
	if op.Kind == OpCompute {
		return op.N
	}
	return 1
}

// bulkLimits are the instruction limits a script byte selects among:
// none left, one op's worth, a few ops', and more than any run holds.
var bulkLimits = [8]int64{-3, 0, 1, 2, 7, 13, 64, 1 << 40}

// checkBulkRun is the bulk form's property. Three engines of one
// profile and seed advance in step under a script of (thread, limit)
// choices: one takes every compute run through RunPC/StepRun, one takes
// the same ops through Next, and the eager reference builder of
// eager_test.go — which holds each transaction as a list of ops, so it
// can be looked ahead in — says what both must produce. At every step
// RunPC must say "run op" exactly when the reference's next op is a
// compute or branch op, and name its PC; StepRun must return the
// instruction total of the ops the contract lets it take (the first,
// then each further one while under the limit, inside the first's
// block and inside the run); the per-op twin, having drawn those ops
// with Next, must hash to the same progress; and every op drawn singly
// must equal the reference's. Script bytes also swap the per-op twin
// for a Clone of the bulk engine, mid-run as often as not, so the two
// then share their plans copy-on-write.
func checkBulkRun(seed uint64, branchEvery, indirect, block uint8, partition bool, script []byte) error {
	prof := TxnProfile{
		Name: "bulk", Threads: 4,
		Tables: []Table{
			{Name: "a", Rows: 100, RowBytes: 64, Theta: 0.6},
			{Name: "b", Rows: 37, RowBytes: 200, Theta: 0.2},
		},
		Classes: []TxnClass{
			// 8 instructions a step over 7 accesses: runs of one
			// instruction, in a code region smaller than a block.
			{Name: "tiny", Weight: 1, Steps: 2, InstrPerStep: 8, Reads: 4, Writes: 3,
				Tables: []int{0, 1}, LockFamily: 0, LockedFrac: 0.5, LogRecords: 1,
				CodeBytes: 24, Partition: partition},
			{Name: "long", Weight: 2, Steps: 1, InstrPerStep: 700, Reads: 1, Writes: 0,
				Tables: []int{1}, LockFamily: -1, CodeBytes: 4096, Partition: partition},
		},
		LockFamilies: []int{2},
		HasLog:       true, LogRecBytes: 48, PrivatePerOp: 1,
		BranchEvery: 1 + int64(branchEvery%13), BranchSites: 5,
		IndirectEvery: [3]int{0, 1, 7}[indirect%3],
	}
	blockBits := 4 + uint(block%5) // 16 to 256 bytes
	bulk, perOp, ref := NewTxnEngine(prof, seed), NewTxnEngine(prof, seed), newEagerTxn(prof, seed)

	// single draws one op from all three engines and compares.
	single := func(step, tid int) (Op, error) {
		want := ref.Next(tid)
		if got := bulk.Next(tid); got != want {
			return want, fmt.Errorf("step %d thread %d: bulk engine's Next gave %+v, reference %+v", step, tid, got, want)
		}
		if got := perOp.Next(tid); got != want {
			return want, fmt.Errorf("step %d thread %d: per-op engine's Next gave %+v, reference %+v", step, tid, got, want)
		}
		return want, nil
	}
	for step, b := range script {
		tid, limit := int(b&3), bulkLimits[b>>2&7]
		next, has := ref.peek(tid)
		inRun := has && (next.Kind == OpCompute || next.Kind == OpBranch)
		pc, ok := bulk.RunPC(tid)
		if ok != inRun || ok && pc != next.PC {
			return fmt.Errorf("step %d thread %d: RunPC = (%#x, %v), reference's next op %+v (present %v)", step, tid, pc, ok, next, has)
		}
		if !ok {
			if _, err := single(step, tid); err != nil {
				return err
			}
		} else {
			got := bulk.StepRun(tid, blockBits, limit)
			var want int64
			for first := true; ; first = false {
				op, has := ref.peek(tid)
				if !first && (!has || op.Kind != OpCompute && op.Kind != OpBranch || want >= limit || op.PC>>blockBits != next.PC>>blockBits) {
					break
				}
				want += opInstrs(op)
				if ref.Next(tid) != perOp.Next(tid) {
					return fmt.Errorf("step %d thread %d: per-op engine left the reference inside a run", step, tid)
				}
			}
			if got != want {
				return fmt.Errorf("step %d thread %d: StepRun(%d-byte blocks, limit %d) consumed %d instructions, the same ops through Next hold %d",
					step, tid, 1<<blockBits, limit, got, want)
			}
		}
		if progressDigest(bulk) != progressDigest(perOp) {
			return fmt.Errorf("step %d thread %d: HashProgress tells the bulk engine from the per-op one", step, tid)
		}
		if b>>5 == 7 {
			perOp = bulk.CloneOver(nil).(*TxnEngine)
		}
	}
	// What follows the script is the reference's stream too, to the end of
	// every thread's transaction and a little beyond.
	for tid := 0; tid < prof.Threads; tid++ {
		for n, ended := 0, false; n < 40 || !ended; n++ {
			op, err := single(len(script), tid)
			if err != nil {
				return err
			}
			ended = ended || op.Kind == OpTxnEnd
		}
	}
	return nil
}

// TestBulkRunMatchesNext is checkBulkRun over random profiles and
// scripts long enough to cross several transactions a thread.
func TestBulkRunMatchesNext(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Values: func(args []reflect.Value, r *rand.Rand) {
		script := make([]byte, 200+r.Intn(1500))
		r.Read(script)
		args[0] = reflect.ValueOf(r.Uint64())
		for i := 1; i <= 3; i++ {
			args[i] = reflect.ValueOf(uint8(r.Intn(256)))
		}
		args[4] = reflect.ValueOf(r.Intn(2) == 0)
		args[5] = reflect.ValueOf(script)
	}}
	err := quick.Check(func(seed uint64, branchEvery, indirect, block uint8, partition bool, script []byte) bool {
		if err := checkBulkRun(seed, branchEvery, indirect, block, partition, script); err != nil {
			t.Error(err)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzBulkRun is the same property under the fuzzer (make fuzz-smoke
// runs it briefly from the corpus in testdata/fuzz/FuzzBulkRun).
func FuzzBulkRun(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(2), uint8(2), false, []byte("\x00\x1c\x1d\xfe\x1f\x04\xe5\x1c\x1c\x1c\x1c"))
	f.Fuzz(func(t *testing.T, seed uint64, branchEvery, indirect, block uint8, partition bool, script []byte) {
		if err := checkBulkRun(seed, branchEvery, indirect, block, partition, script); err != nil {
			t.Fatal(err)
		}
	})
}
