package workloads

import (
	"testing"

	"varsim/internal/config"
	"varsim/internal/workload"
)

func TestAllWorkloadsConstruct(t *testing.T) {
	cfg := config.Default()
	for _, name := range Names() {
		inst, err := New(name, cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst.Name() != name {
			t.Errorf("%s: Name() = %q", name, inst.Name())
		}
		if inst.NumThreads() <= 0 {
			t.Errorf("%s: no threads", name)
		}
		// Every workload must be able to produce a stream.
		for i := 0; i < 100; i++ {
			inst.Next(0)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	_, err := New("nope", config.Default(), 1)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if cerr := Check("nope"); cerr == nil || cerr.Error() != err.Error() {
		t.Errorf("Check(nope) = %v, want New's error %v", cerr, err)
	}
	for _, name := range Names() {
		if err := Check(name); err != nil {
			t.Errorf("Check(%s) = %v", name, err)
		}
	}
}

func TestNamesComplete(t *testing.T) {
	want := map[string]bool{
		"oltp": true, "apache": true, "specjbb": true, "slashcode": true,
		"ecperf": true, "barnes": true, "ocean": true,
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("have %d workloads, want %d", len(names), len(want))
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected workload %q", n)
		}
	}
}

func TestDefaultTxnsTable3(t *testing.T) {
	// Table 3's per-benchmark transaction counts (SPECjbb scaled).
	cases := map[string]int64{
		"barnes": 1, "ocean": 1, "ecperf": 5, "slashcode": 30,
		"oltp": 1000, "apache": 5000, "specjbb": 6000,
	}
	for name, want := range cases {
		if got := DefaultTxns(name); got != want {
			t.Errorf("DefaultTxns(%s) = %d, want %d", name, got, want)
		}
	}
	if DefaultTxns("bogus") != 0 {
		t.Error("bogus workload should give 0")
	}
}

func TestThreadCountsScaleWithCPUs(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 16
	cfg.ThreadsPerCPU = 8
	oltp, _ := New("oltp", cfg, 1)
	if oltp.NumThreads() != 128 {
		t.Errorf("OLTP threads = %d, want 128 (8 per processor, §3.1)", oltp.NumThreads())
	}
	jbb, _ := New("specjbb", cfg, 1)
	if jbb.NumThreads() != 16 {
		t.Errorf("SPECjbb threads = %d, want 16 (one warehouse per processor)", jbb.NumThreads())
	}
	barnes, _ := New("barnes", cfg, 1)
	if barnes.NumThreads() != 16 {
		t.Errorf("Barnes threads = %d, want 16", barnes.NumThreads())
	}
}

func TestWorkloadStructuralProperties(t *testing.T) {
	cfg := config.Default()
	// SPECjbb: no OS locks contended across threads (lock family empty),
	// partitioned data, no log.
	jbb, _ := New("specjbb", cfg, 1)
	if jbb.NumSpinLocks() != 0 {
		t.Error("specjbb should not use the log latch")
	}
	seen := map[workload.OpKind]bool{}
	for i := 0; i < 5000; i++ {
		op := jbb.Next(i % jbb.NumThreads())
		seen[op.Kind] = true
	}
	if seen[workload.OpLockAcq] {
		t.Error("specjbb emitted lock operations; warehouses are thread-private")
	}
	if seen[workload.OpIO] {
		t.Error("specjbb emitted I/O; it is an in-memory benchmark")
	}
	// OLTP: must emit locks, I/O, and log-latch acquires.
	oltp, _ := New("oltp", cfg, 1)
	if oltp.NumSpinLocks() != 1 {
		t.Error("oltp should use the log latch")
	}
	seen = map[workload.OpKind]bool{}
	logLock := false
	for i := 0; i < 50000; i++ {
		op := oltp.Next(0) // drive one thread through many transactions
		seen[op.Kind] = true
		if op.Kind == workload.OpLockAcq && op.ID == 0 {
			logLock = true
		}
	}
	for _, k := range []workload.OpKind{workload.OpLockAcq, workload.OpIO, workload.OpBranch, workload.OpTxnEnd} {
		if !seen[k] {
			t.Errorf("oltp never emitted %v", k)
		}
	}
	if !logLock {
		t.Error("oltp never touched the log latch")
	}
	// Scientific codes: barriers.
	ocean, _ := New("ocean", cfg, 1)
	foundBarrier := false
	// One Ocean phase streams its whole 2 MB partition, so a barrier only
	// appears after ~100k ops.
	for i := 0; i < 300000 && !foundBarrier; i++ {
		if ocean.Next(0).Kind == workload.OpBarrier {
			foundBarrier = true
		}
	}
	if !foundBarrier {
		t.Error("ocean never hit a barrier")
	}
}

func TestClonesAreIndependent(t *testing.T) {
	cfg := config.Default()
	for _, name := range Names() {
		inst, _ := New(name, cfg, 3)
		for i := 0; i < 50; i++ {
			inst.Next(0)
		}
		cl := inst.CloneOver(nil)
		for i := 0; i < 500; i++ {
			a := inst.Next(0)
			b := cl.Next(0)
			if a != b {
				t.Fatalf("%s: clone diverged at %d", name, i)
			}
		}
	}
}
