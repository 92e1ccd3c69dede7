package machine_test

import (
	"testing"

	"varsim/internal/checkpoint"
	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/machine"
	"varsim/internal/workload"
	"varsim/internal/workloads"
)

// callCounts tallies the calls a machine, and every snapshot cloned from
// it, makes on its workload instance.
type callCounts struct{ next, runPC, stepRun int64 }

// countingInstance forwards to the instance it wraps and counts. It
// offers the bulk form unconditionally, as the engines that have one do:
// whether to use it is the machine's decision, which is what is tested.
type countingInstance struct {
	workload.Instance
	n *callCounts
}

func count(n *callCounts) func(workload.Instance) workload.Instance {
	return func(wl workload.Instance) workload.Instance { return countingInstance{wl, n} }
}

func (c countingInstance) NextInto(tid int, op *workload.Op) {
	c.n.next++
	c.Instance.NextInto(tid, op)
}

func (c countingInstance) RunPC(tid int) (uint64, bool) {
	c.n.runPC++
	return c.Instance.(workload.RunStepper).RunPC(tid)
}

func (c countingInstance) StepRun(tid int, blockBits uint, limit int64) int64 {
	c.n.stepRun++
	return c.Instance.(workload.RunStepper).StepRun(tid, blockBits, limit)
}

func (c countingInstance) CloneOver(spent workload.Instance) workload.Instance {
	if s, ok := spent.(countingInstance); ok {
		spent = s.Instance
	}
	return countingInstance{c.Instance.CloneOver(spent), c.n}
}

func (c countingInstance) Freeze() { c.Instance.(workload.Freezer).Freeze() }

// TestBulkPathLive guards the failure the bulk path invites: a machine
// that does not use it — a snapshot that lost the wiring, say — is
// still right, bit for bit, only a third slower, so no identity test
// can see it. On this 8-CPU OLTP window the per-op core makes 292 NextInto
// calls per 1000 instructions; with compute runs consumed in bulk it
// makes about 75 (59 once the code is warm in the L2s: what is left
// is the ops outside runs and one op for each fetch that stalled).
// Every way a machine comes to exist must stay under 100, and the OOO
// core, whose predictors need every branch, must never touch the bulk
// form.
func TestBulkPathLive(t *testing.T) {
	const warm, window, ceiling = 300, 100, 100.0
	cfg := config.Default()
	cfg.NumCPUs = 8
	build := func(t *testing.T, cfg config.Config, n *callCounts) *machine.Machine {
		t.Helper()
		wl, err := workloads.New("oltp", cfg, 0xA1A3)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(cfg, count(n)(wl), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(warm); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// measure runs the window on m and returns Next calls per 1000
	// instructions over it.
	measure := func(t *testing.T, m *machine.Machine, n *callCounts) float64 {
		t.Helper()
		before := n.next
		res, err := m.Run(window)
		if err != nil {
			t.Fatal(err)
		}
		return 1000 * float64(n.next-before) / float64(res.Instrs)
	}
	check := func(t *testing.T, got float64) {
		t.Helper()
		t.Logf("%.1f Next calls per 1000 instructions", got)
		if got > ceiling {
			t.Fatalf("%.0f Next calls per 1000 instructions, ceiling %.0f: compute runs are not consumed in bulk", got, ceiling)
		}
	}

	var n callCounts
	base := build(t, cfg, &n)
	t.Run("new", func(t *testing.T) { check(t, measure(t, base, &n)) })
	t.Run("snapshot", func(t *testing.T) { check(t, measure(t, base.Snapshot(), &n)) })
	t.Run("snapshot-over", func(t *testing.T) {
		spent := base.Snapshot()
		if _, err := spent.Run(5); err != nil {
			t.Fatal(err)
		}
		check(t, measure(t, base.SnapshotOver(spent), &n))
	})
	t.Run("recipe", func(t *testing.T) {
		m, err := checkpoint.Recipe{Config: cfg, Workload: "oltp", WorkloadSeed: 0xA1A3, PerturbSeed: 1, WarmupTxns: warm}.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !m.BulkRuns() {
			t.Fatal("a machine rebuilt from a recipe does not use the bulk form")
		}
		var n callCounts
		m.WrapWorkload(count(&n))
		check(t, measure(t, m, &n))
	})
	t.Run("core.Branch", func(t *testing.T) {
		before := n.next
		b, err := core.Branch(base, core.BranchPlan{Label: "live", N: 3, MeasureTxns: window, SeedBase: 7})
		if err != nil {
			t.Fatal(err)
		}
		var instrs int64
		for _, r := range b.Runs {
			instrs += r.Result.Instrs
		}
		check(t, 1000*float64(n.next-before)/float64(instrs))
	})
	t.Run("ooo", func(t *testing.T) {
		cfg := cfg
		cfg.Processor = config.OOOProc
		var n callCounts
		m := build(t, cfg, &n)
		for _, m := range []*machine.Machine{m, m.Snapshot()} {
			if got := measure(t, m, &n); got < 2*ceiling {
				t.Fatalf("%.0f Next calls per 1000 instructions on the OOO core: not the op-by-op stream", got)
			}
		}
		if n.runPC+n.stepRun != 0 {
			t.Fatalf("the OOO core made %d RunPC and %d StepRun calls; it must see every op", n.runPC, n.stepRun)
		}
	})
	t.Logf("simple core, all cases: %d NextInto, %d RunPC, %d StepRun calls", n.next, n.runPC, n.stepRun)
}
