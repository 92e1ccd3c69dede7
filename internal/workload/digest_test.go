package workload

import (
	"reflect"
	"testing"

	"varsim/internal/digest"
	"varsim/internal/rng"
)

func progressDigest(h Hasher) uint64 {
	d := digest.New()
	h.HashProgress(&d)
	return d.Sum()
}

func TestTxnHashProgress(t *testing.T) {
	a := NewTxnEngine(testProfile(), 42)
	b := NewTxnEngine(testProfile(), 42)
	if progressDigest(a) != progressDigest(b) {
		t.Fatalf("identical fresh engines digest unequal")
	}
	// Digesting must not advance the engine.
	before := progressDigest(a)
	if progressDigest(a) != before {
		t.Fatalf("HashProgress not idempotent")
	}
	if a.Next(0) != b.Next(0) {
		t.Fatalf("digested engine produced a different op stream")
	}
	if progressDigest(a) != progressDigest(b) {
		t.Fatalf("lockstep engines digest unequal")
	}
	// Advancing a different thread forks the digest.
	a.Next(1)
	if progressDigest(a) == progressDigest(b) {
		t.Fatalf("thread progress invisible to digest")
	}
	b.Next(1)
	if progressDigest(a) != progressDigest(b) {
		t.Fatalf("reconverged engines digest unequal")
	}
}

func TestTxnHashProgressSeesFeedAssignment(t *testing.T) {
	// The shared feed is the paper's timing-dependent work assignment:
	// the same two transactions claimed by different threads must
	// digest differently even after both engines built two txns.
	a := NewTxnEngine(testProfile(), 42)
	b := NewTxnEngine(testProfile(), 42)
	a.Next(0)
	a.Next(1)
	b.Next(1)
	b.Next(0)
	if a.feed != b.feed {
		t.Fatalf("feed positions differ: %d vs %d", a.feed, b.feed)
	}
	if progressDigest(a) == progressDigest(b) {
		t.Fatalf("txn-to-thread assignment invisible to digest")
	}
}

func TestSciHashProgress(t *testing.T) {
	prof := SciProfile{
		Name: "sci", Threads: 4, Phases: 3, InstrPerPhase: 100,
		PartitionBytes: 4096, SweepStride: 64, SharedBytes: 4096,
		SharedReads: 4, SharedTheta: 0.5, WriteFrac: 0.25,
	}
	a := NewSciEngine(prof, 7)
	b := NewSciEngine(prof, 7)
	if progressDigest(a) != progressDigest(b) {
		t.Fatalf("identical fresh sci engines digest unequal")
	}
	a.Next(2)
	if progressDigest(a) == progressDigest(b) {
		t.Fatalf("sci thread progress invisible to digest")
	}
	b.Next(2)
	if progressDigest(a) != progressDigest(b) {
		t.Fatalf("lockstep sci engines digest unequal")
	}
}

func TestEnginesImplementHasher(t *testing.T) {
	var _ Hasher = (*TxnEngine)(nil)
	var _ Hasher = (*SciEngine)(nil)
}

// TestHashProgressFoldsEveryStateField perturbs each field of the
// per-thread generator state in turn and requires the digest to move.
// The field lists are checked against the struct types, so a field
// added to either state without a line here (and in HashProgress)
// fails the test.
func TestHashProgressFoldsEveryStateField(t *testing.T) {
	txn := map[string]func(*txnThread){
		"plan":   func(t *txnThread) { t.plan = t.plan[:len(t.plan)-1] }, // folded by length: see HashProgress
		"next":   func(t *txnThread) { t.next++ },
		"class":  func(t *txnThread) { t.class++ },
		"fork":   func(t *txnThread) { t.fork.Uint64() },
		"pc":     func(t *txnThread) { t.pc += 4 },
		"poff":   func(t *txnThread) { t.poff += 64 },
		"run":    func(t *txnThread) { t.run++ },
		"row":    func(t *txnThread) { t.row++ },
		"indIn":  func(t *txnThread) { t.indIn++ },
		"step":   func(t *txnThread) { t.step++ },
		"flags":  func(t *txnThread) { t.flags ^= walkSecond },
		"brNext": func(t *txnThread) { t.brNext = !t.brNext },
		"shared": nil, // copy-on-write bookkeeping, not generator state
	}
	typ := reflect.TypeOf(txnThread{})
	if typ.NumField() != len(txn) {
		t.Fatalf("txnThread has %d fields, this test knows %d", typ.NumField(), len(txn))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mutate, known := txn[name]
		if !known {
			t.Fatalf("txnThread.%s is not covered by this test", name)
		}
		if mutate == nil {
			continue
		}
		e := NewTxnEngine(testProfile(), 42)
		for j := 0; j < 300; j++ {
			e.Next(j % 3)
		}
		before := progressDigest(e)
		mutate(&e.threads[1])
		if progressDigest(e) == before {
			t.Errorf("txnThread.%s is invisible to HashProgress", name)
		}
	}

	sci := map[string]func(*sciThread){
		"rng":   func(t *sciThread) { t.rng.Uint64() },
		"phase": func(t *sciThread) { t.phase++ },
		"i":     func(t *sciThread) { t.i++ },
		"pc":    func(t *sciThread) { t.pc += 4 },
		"stage": func(t *sciThread) { t.stage++ },
	}
	typ = reflect.TypeOf(sciThread{})
	if typ.NumField() != len(sci) {
		t.Fatalf("sciThread has %d fields, this test knows %d", typ.NumField(), len(sci))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mutate, known := sci[name]
		if !known {
			t.Fatalf("sciThread.%s is not covered by this test", name)
		}
		e := NewSciEngine(sciProfile(), 7)
		for j := 0; j < 100; j++ {
			e.Next(j % 3)
		}
		before := progressDigest(e)
		mutate(&e.threads[1])
		if progressDigest(e) == before {
			t.Errorf("sciThread.%s is invisible to HashProgress", name)
		}
	}
}

// TestHashProgressAfterClone clones engines at random points — inside
// compute runs, index walks and stack touches as often as their share
// of the stream — and checks both directions: the clone and the
// original digest equal while they are advanced alike, and unequal as
// soon as one takes an op the other has not.
func TestHashProgressAfterClone(t *testing.T) {
	type engine interface {
		Instance
		Hasher
	}
	r := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		var a engine = NewTxnEngine(testProfile(), uint64(trial))
		if trial%4 == 3 {
			a = NewSciEngine(sciProfile(), uint64(trial))
		}
		threads := a.NumThreads()
		for n := r.Intn(400); n > 0; n-- {
			a.Next(r.Intn(threads))
		}
		b := a.CloneOver(nil).(engine)
		if progressDigest(a) != progressDigest(b) {
			t.Fatalf("trial %d: fresh clone digests unequal", trial)
		}
		for n := r.Intn(50); n > 0; n-- {
			tid := r.Intn(threads)
			if a.Next(tid) != b.Next(tid) {
				t.Fatalf("trial %d: clone's stream diverged", trial)
			}
			if progressDigest(a) != progressDigest(b) {
				t.Fatalf("trial %d: equal streams digest unequal", trial)
			}
		}
		// One op more on one side only, then one on the other side's next
		// thread: as many ops each, differently spent. A thread that has
		// finished its program has no further state to move.
		x := r.Intn(threads)
		opA := a.Next(x)
		if opA.Kind != OpDone && progressDigest(a) == progressDigest(b) {
			t.Fatalf("trial %d: %v op invisible to digest", trial, opA.Kind)
		}
		opB := b.Next((x + 1) % threads)
		if opA.Kind != OpDone && opB.Kind != OpDone && progressDigest(a) == progressDigest(b) {
			t.Fatalf("trial %d: engines advanced on different threads digest equal", trial)
		}
	}
}
