package machine

import (
	"reflect"
	"testing"

	"varsim/internal/config"
)

// A machine's registry, read, has the core instrument set.
func TestRegistryWired(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 1, 1)
	reg := m.Metrics()
	for _, name := range []string{
		"machine.instrs", "machine.txns", "machine.events",
		"bus.requests", "bus.queue_len", "bus.queue_delay_ns",
		"mem.l1d.misses", "mem.l1i.misses", "mem.l2.misses", "mem.l2.accesses",
		"snoop.cache_to_cache", "snoop.mem_fetches", "snoop.writebacks",
		"dram.accesses", "disk.requests",
		"os.ctx_switches", "os.preempts", "os.steals",
		"os.lock_acquisitions", "os.lock_contentions", "os.runnable",
	} {
		if reg.Get(name) == nil {
			t.Fatalf("instrument %q not registered", name)
		}
	}
	if _, err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s["machine.instrs"] <= 0 || s["mem.l2.misses"] <= 0 || s["os.ctx_switches"] <= 0 {
		t.Fatalf("counters did not advance: %v", s)
	}
	if s["mem.l2.accesses"] < s["mem.l2.misses"] {
		t.Fatalf("accesses %v < misses %v", s["mem.l2.accesses"], s["mem.l2.misses"])
	}
}

// A registry is built by the first Metrics call and never before: New,
// and Snapshot and SnapshotOver of a machine that does not sample, leave
// none — even when the parent and the spent machine have one — and the
// one Metrics then builds reads what the parent's reads.
func TestRegistryBuiltOnFirstRead(t *testing.T) {
	for _, proc := range []config.ProcessorKind{config.SimpleProc, config.OOOProc} {
		cfg := testConfig()
		cfg.Processor = proc
		base := mustMachine(t, cfg, "oltp", 1, 1)
		if base.reg != nil {
			t.Fatalf("processor %v: New wired a registry", proc)
		}
		if _, err := base.Run(20); err != nil {
			t.Fatal(err)
		}
		spent := base.Snapshot()
		if _, err := spent.Run(10); err != nil {
			t.Fatal(err)
		}
		spent.Metrics()
		want := base.Metrics().Snapshot()
		for _, c := range []struct {
			name string
			m    *Machine
		}{{"Snapshot", base.Snapshot()}, {"SnapshotOver", base.SnapshotOver(spent)}} {
			if c.m.reg != nil {
				t.Fatalf("processor %v: %s of a machine that does not sample wired a registry", proc, c.name)
			}
			if got := c.m.Metrics().Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("processor %v: %s's registry reads\n%v\nits parent's reads\n%v", proc, c.name, got, want)
			}
		}
	}
}

func TestOOOMachineRegistersBpred(t *testing.T) {
	cfg := testConfig()
	cfg.Processor = 1 // config.OOOProc
	m := mustMachine(t, cfg, "oltp", 1, 1)
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	s := m.Metrics().Snapshot()
	if s["bpred.cond_seen"] <= 0 {
		t.Fatalf("bpred not wired on OOO machine: %v", s["bpred.cond_seen"])
	}
	if m.Metrics().Get("ooo.rob_stalls") == nil {
		t.Fatal("ooo stall counters not registered")
	}
}

// Interval sampling produces a monotone, non-empty series whose
// cumulative counters agree with the registry, and two identically
// seeded runs sample bit-identical series (determinism).
func TestSamplingDeterministicSeries(t *testing.T) {
	series := func() [][2]float64 {
		m := mustMachine(t, testConfig(), "oltp", 7, 3)
		m.EnableSampling(50_000) // 50 us
		if _, err := m.Run(40); err != nil {
			t.Fatal(err)
		}
		ts := m.MetricSeries()
		if ts.Len() < 3 {
			t.Fatalf("only %d samples", ts.Len())
		}
		var out [][2]float64
		prevT := int64(0)
		prevI := -1.0
		for _, s := range ts.Samples {
			if s.TimeNS <= prevT {
				t.Fatalf("sample times not ascending: %d then %d", prevT, s.TimeNS)
			}
			if s.Values["machine.instrs"] < prevI {
				t.Fatal("cumulative instrs decreased")
			}
			prevT, prevI = s.TimeNS, s.Values["machine.instrs"]
			out = append(out, [2]float64{float64(s.TimeNS), s.Values["machine.instrs"]})
		}
		return out
	}
	a, b := series(), series()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identically seeded runs sampled different series")
	}
}

// Sampling must not perturb the simulated trajectory: the same run with
// and without sampling finishes at the same simulated time with the
// same CPT (only the delivered-event count differs, by the drain ticks).
func TestSamplingIsObservationOnly(t *testing.T) {
	run := func(sample bool) Result {
		m := mustMachine(t, testConfig(), "oltp", 5, 9)
		if sample {
			m.EnableSampling(25_000)
		}
		res, err := m.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, sampled := run(false), run(true)
	if plain.ElapsedNS != sampled.ElapsedNS || plain.CPT != sampled.CPT ||
		plain.Instrs != sampled.Instrs || plain.L2Misses != sampled.L2Misses {
		t.Fatalf("sampling perturbed the run:\nplain   %+v\nsampled %+v", plain, sampled)
	}
	if sampled.Events <= plain.Events {
		t.Fatal("sampled run should deliver extra drain events")
	}
}

// Snapshot clones carry the sampler and registry independently: the
// clone keeps sampling without affecting the original.
func TestSnapshotClonesSampler(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 2, 4)
	m.EnableSampling(50_000)
	if _, err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	n := m.MetricSeries().Len()
	if n == 0 {
		t.Fatal("no samples before snapshot")
	}
	c := m.Snapshot()
	if _, err := c.Run(20); err != nil {
		t.Fatal(err)
	}
	if got := m.MetricSeries().Len(); got != n {
		t.Fatalf("original sampler advanced with the clone: %d -> %d", n, got)
	}
	if c.MetricSeries().Len() <= n {
		t.Fatal("clone sampler did not keep sampling")
	}
	// The clone's registry must read the clone's components.
	before := c.Metrics().Snapshot()["machine.instrs"]
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if after := c.Metrics().Snapshot()["machine.instrs"]; after <= before {
		t.Fatal("clone registry not rewired to clone state")
	}
}

// The bus queue-delay histogram observes every granted request and
// survives snapshots.
func TestBusDelayHistogram(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 1, 1)
	res, err := m.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	// Every granted request is observed; at most the still-queued tail is
	// missing.
	if got := m.busDelay.Count() + uint64(len(m.bus.q)); got < res.BusRequests {
		t.Fatalf("histogram saw %d grants (+%d queued), want >= %d", m.busDelay.Count(), len(m.bus.q), res.BusRequests)
	}
	c := m.Snapshot()
	if c.busDelay.Count() != m.busDelay.Count() {
		t.Fatalf("snapshot lost histogram state: %d != %d", c.busDelay.Count(), m.busDelay.Count())
	}
}
