package machine

import (
	"testing"

	"varsim/internal/config"
	"varsim/internal/trace"
	"varsim/internal/workloads"
)

func testConfig() config.Config {
	cfg := config.Default()
	cfg.NumCPUs = 4
	return cfg
}

func mustMachine(t testing.TB, cfg config.Config, wl string, wlSeed, perturbSeed uint64) *Machine {
	t.Helper()
	inst, err := workloads.New(wl, cfg, wlSeed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, inst, perturbSeed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunCompletesTransactions(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 1, 1)
	res, err := m.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns < 30 {
		t.Fatalf("completed %d txns, want >= 30", res.Txns)
	}
	if res.ElapsedNS <= 0 || res.CPT <= 0 {
		t.Fatalf("bad timing: %+v", res)
	}
	if res.Instrs <= 0 {
		t.Fatal("no instructions retired")
	}
	if res.L2Misses == 0 || res.BusRequests == 0 {
		t.Fatalf("memory system not exercised: %+v", res)
	}
	if res.CacheToCache == 0 {
		t.Fatal("no cache-to-cache transfers: no sharing happening")
	}
	if res.CtxSwitches == 0 {
		t.Fatal("no context switches despite 8x over-subscription")
	}
}

func TestDeterminism(t *testing.T) {
	a := mustMachine(t, testConfig(), "oltp", 7, 99)
	b := mustMachine(t, testConfig(), "oltp", 7, 99)
	ra, err := a.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", ra, rb)
	}
	if a.Now() != b.Now() {
		t.Fatalf("clocks diverged: %d vs %d", a.Now(), b.Now())
	}
}

func TestPerturbationCreatesSpaceVariability(t *testing.T) {
	// Same workload seed (same initial conditions), different perturbation
	// seeds: runs must follow different execution paths (§3.3).
	a := mustMachine(t, testConfig(), "oltp", 7, 1)
	b := mustMachine(t, testConfig(), "oltp", 7, 2)
	ra, err := a.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	if ra.ElapsedNS == rb.ElapsedNS {
		t.Fatalf("different perturbation seeds gave identical runtimes (%d ns)", ra.ElapsedNS)
	}
}

func TestNoPerturbationStaysDeterministicAcrossSeeds(t *testing.T) {
	cfg := testConfig()
	cfg.PerturbMaxNS = 0
	a := mustMachine(t, cfg, "oltp", 7, 1)
	b := mustMachine(t, cfg, "oltp", 7, 2)
	ra, _ := a.Run(15)
	rb, _ := b.Run(15)
	if ra != rb {
		t.Fatalf("with perturbation off, the simulator must be seed-independent:\n%+v\n%+v", ra, rb)
	}
}

func TestSnapshotBranching(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 3, 11)
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	// Branch two futures with the same perturbation seed: identical.
	s1 := m.Snapshot()
	s2 := m.Snapshot()
	s1.SetPerturbSeed(42)
	s2.SetPerturbSeed(42)
	r1, err := s1.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same-seed branches diverged:\n%+v\n%+v", r1, r2)
	}
	// Different seeds: diverge.
	s3 := m.Snapshot()
	s3.SetPerturbSeed(43)
	r3, err := s3.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if r3.ElapsedNS == r1.ElapsedNS {
		t.Fatal("differently-seeded branches identical")
	}
	// The original machine must be unaffected by branch execution.
	before := m.TxnsDone()
	if before >= s1.TxnsDone() {
		t.Fatalf("snapshot ran but original moved: %d vs %d", before, s1.TxnsDone())
	}
	r0, err := m.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Txns < 10 {
		t.Fatal("original machine cannot continue after snapshots")
	}
}

func TestSchedTraceRecorded(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 5, 5)
	m.EnableTrace(0)
	if _, err := m.Run(15); err != nil {
		t.Fatal(err)
	}
	tr := trace.Dispatches(m.Trace().Events())
	if len(tr) == 0 {
		t.Fatal("no scheduling events recorded")
	}
	last := int64(-1)
	for _, e := range tr {
		if e.TimeNS < last {
			t.Fatal("sched trace not time-ordered")
		}
		last = e.TimeNS
		if e.CPU < 0 || int(e.CPU) >= m.Config().NumCPUs {
			t.Fatalf("bad cpu in trace: %+v", e)
		}
	}
}

func TestTxnTimesRecorded(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 5, 5)
	m.EnableTrace(0)
	res, err := m.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	times := trace.TxnEndTimes(m.Trace().Events())
	if int64(len(times)) != res.Txns {
		t.Fatalf("recorded %d txn times for %d txns", len(times), res.Txns)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("txn times not monotone")
		}
	}
}

func TestRunNS(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 5, 5)
	res, err := m.RunNS(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedNS < 2_000_000 {
		t.Fatalf("elapsed %d < requested window", res.ElapsedNS)
	}
	if res.Txns <= 0 {
		t.Fatal("no transactions in 2ms window")
	}
}

func TestScientificWorkloadRunsToCompletion(t *testing.T) {
	m := mustMachine(t, testConfig(), "ocean", 5, 5)
	res, err := m.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns != 1 {
		t.Fatalf("ocean should complete exactly 1 transaction, got %d", res.Txns)
	}
}

func TestBarnesLowVariabilityVsOLTP(t *testing.T) {
	// Structural sanity: the scientific benchmark must be less variable
	// than warmed OLTP under the same perturbation (Table 3's ordering).
	spreadOf := func(vals []float64) float64 {
		min, max := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return (max - min) / min
	}
	// Barnes: whole-program runs (1 transaction each), cold start as in
	// the paper.
	var sci []float64
	for seed := uint64(1); seed <= 4; seed++ {
		m := mustMachine(t, testConfig(), "barnes", 9, seed)
		res, err := m.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		sci = append(sci, res.CPT)
	}
	// OLTP: branch perturbed runs from a warmed checkpoint so cold-start
	// effects do not mask run-to-run divergence.
	base := mustMachine(t, testConfig(), "oltp", 9, 1)
	if _, err := base.Run(120); err != nil {
		t.Fatal(err)
	}
	var oltp []float64
	for seed := uint64(1); seed <= 4; seed++ {
		m := base.Snapshot()
		m.SetPerturbSeed(seed)
		res, err := m.Run(50)
		if err != nil {
			t.Fatal(err)
		}
		oltp = append(oltp, res.CPT)
	}
	if s, o := spreadOf(sci), spreadOf(oltp); s > o {
		t.Fatalf("barnes spread %.4f should be below oltp spread %.4f", s, o)
	}
}

func TestOOOCoreFasterThanSimple(t *testing.T) {
	cfg := testConfig()
	simple := mustMachine(t, cfg, "oltp", 11, 3)
	rs, err := simple.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Processor = config.OOOProc
	ooo := mustMachine(t, cfg, "oltp", 11, 3)
	ro, err := ooo.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if ro.CPT >= rs.CPT {
		t.Fatalf("4-wide OOO core (CPT %.0f) not faster than simple core (CPT %.0f)", ro.CPT, rs.CPT)
	}
}

func TestROBSizeMatters(t *testing.T) {
	cpt := func(rob int) float64 {
		cfg := testConfig()
		cfg.Processor = config.OOOProc
		cfg.OOO.ROBEntries = rob
		m := mustMachine(t, cfg, "oltp", 11, 3)
		r, err := m.Run(20)
		if err != nil {
			t.Fatal(err)
		}
		return r.CPT
	}
	small, large := cpt(16), cpt(64)
	if large >= small {
		t.Fatalf("64-entry ROB (%.0f) not faster than 16-entry (%.0f)", large, small)
	}
}

func TestRunErrors(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 1, 1)
	if _, err := m.Run(0); err == nil {
		t.Error("Run(0) should error")
	}
	if _, err := m.RunNS(0); err == nil {
		t.Error("RunNS(0) should error")
	}
	bad := config.Default()
	bad.NumCPUs = 0
	inst, _ := workloads.New("oltp", config.Default(), 1)
	if _, err := New(bad, inst, 1); err == nil {
		t.Error("invalid config should error")
	}
}

func TestEventBudgetGuard(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 1, 1)
	m.maxEvents = 10 // absurdly small
	if _, err := m.Run(1000); err == nil {
		t.Error("expected event-budget error")
	}
}

func TestStructuredTrace(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 5, 5)
	m.EnableTrace(0)
	res, err := m.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	buf := m.Trace()
	if buf == nil || buf.Len() == 0 {
		t.Fatal("no trace recorded")
	}
	events := buf.Events()
	// Monotone non-decreasing times.
	last := int64(-1)
	kinds := map[trace.Kind]int{}
	for _, ev := range events {
		if ev.TimeNS < last-5000 { // wake handoff events may slightly precede later emits
			t.Fatalf("trace wildly out of order at %+v (last %d)", ev, last)
		}
		if ev.TimeNS > last {
			last = ev.TimeNS
		}
		kinds[ev.Kind]++
	}
	if kinds[trace.Dispatch] == 0 || kinds[trace.TxnEnd] == 0 || kinds[trace.LockAcquire] == 0 {
		t.Fatalf("missing kinds: %v", kinds)
	}
	if int64(kinds[trace.TxnEnd]) != res.Txns {
		t.Fatalf("trace txn count %d vs result %d", kinds[trace.TxnEnd], res.Txns)
	}
	// Analyses run end to end.
	lr := trace.LockReport(events)
	if len(lr) == 0 {
		t.Fatal("empty lock report")
	}
	tl := trace.ThreadTimeline(events)
	if len(tl) == 0 {
		t.Fatal("empty timeline")
	}
	// Lock holds must be non-negative and bounded by the run length.
	for _, l := range lr {
		if l.HoldNS < 0 || l.MaxHoldNS > res.ElapsedNS*2 {
			t.Fatalf("implausible lock stats %+v (elapsed %d)", l, res.ElapsedNS)
		}
	}
}

func TestTraceDivergenceBetweenRuns(t *testing.T) {
	run := func(seed uint64) *trace.Buffer {
		m := mustMachine(t, testConfig(), "oltp", 5, seed)
		m.EnableTrace(0)
		if _, err := m.Run(40); err != nil {
			t.Fatal(err)
		}
		return m.Trace()
	}
	a, b := run(1), run(2)
	d := trace.CompareDispatches(a.Events(), b.Events())
	if d.Compared == 0 {
		t.Fatal("nothing compared")
	}
	if d.Prefix == d.Compared {
		t.Fatal("different perturbation seeds never diverged in schedule")
	}
	same := trace.CompareDispatches(a.Events(), run(1).Events())
	if same.AgreedAfter != 1 {
		t.Fatal("identical seeds should produce identical schedules")
	}
}
