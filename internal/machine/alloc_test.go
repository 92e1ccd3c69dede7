package machine

import (
	"runtime"
	"testing"

	"varsim/internal/config"
	"varsim/internal/workloads"
)

// heapCounts reads the cumulative bytes and objects this process has
// allocated. The budgets below run on one goroutine and the simulator is
// deterministic, so the deltas repeat exactly from run to run.
func heapCounts() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// TestAllocationBudgets pins what one branch of the paper's method costs
// in heap on the warmed 8-CPU OLTP checkpoint — the shape bench's
// branch_fanout and steady_oltp workloads time — and what a scientific
// run costs on the detailed core. The ceilings sit above the measured
// figures (in the comments) and well below what each cost before the
// change that brought it down: the array-of-structs cache layout, the
// 64-bit line word, the workload engines' per-transaction and per-phase
// op buffers, the re-sliced bus queue and miss window.
func TestAllocationBudgets(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 8

	// 85.8 KB and 147 objects: page tables, every entry the shared zero
	// page, and the cores, kernel and predictors. While each cache
	// allocated its pages up front it was 2.87 MB and 195 objects — per
	// node a 4 MB L2 of 65 536 lines at 4 bytes of tag word and 1 of
	// rank, and two L1s of 2 048 — which would fail here; 5.13 MB with an
	// 8-byte word, and 296 objects while a metric registry, which nothing
	// on the measured path read, was wired here.
	t.Run("new", func(t *testing.T) {
		const ceiling, objCeiling = 120_000, 160
		inst, err := workloads.New("oltp", cfg, 0xA1A3)
		if err != nil {
			t.Fatal(err)
		}
		b0, n0 := heapCounts()
		m, err := New(cfg, inst, 1)
		b1, n1 := heapCounts()
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		if got := b1 - b0; got > ceiling {
			t.Fatalf("New allocated %d bytes for the 8-CPU machine, budget %d", got, ceiling)
		}
		if got := n1 - n0; got > objCeiling {
			t.Fatalf("New allocated %d objects for the 8-CPU machine, budget %d", got, objCeiling)
		}
	})

	base := mustMachine(t, cfg, "oltp", 0xA1A3, 1)
	if _, err := base.Run(2000); err != nil {
		t.Fatal(err)
	}
	base.Freeze()

	// 56.9 KB and 109 objects: page tables (one pointer per 256-line tag
	// page and per 1024-line rank page), the event heap, kernel and
	// predictor metadata, and ~100 bytes of generator state per workload
	// thread. A thread state that held expanded ops would show here
	// first. It was 87.3 KB with an 8-byte line word, and 65.6 KB and 210
	// objects while every snapshot wired a metric registry of its own.
	t.Run("snapshot", func(t *testing.T) {
		const ceiling, objCeiling = 64_000, 125
		b0, n0 := heapCounts()
		m := base.Snapshot()
		b1, n1 := heapCounts()
		runtime.KeepAlive(m)
		if got := b1 - b0; got > ceiling {
			t.Fatalf("Snapshot allocated %d bytes, budget %d", got, ceiling)
		}
		if got := n1 - n0; got > objCeiling {
			t.Fatalf("Snapshot allocated %d objects, budget %d", got, objCeiling)
		}
	})

	// 4.1-4.2 MB with whole-line COW pages, 1.07 MB with op buffers,
	// 0.50 MB with 128-line tag pages, 0.43 MB now: read hits copy 1 KiB
	// rank pages, fills copy 1 KiB tag pages of 256 lines, and a thread
	// that claims a transaction allocates its few-KB plan, not the
	// transaction's ops.
	t.Run("branch", func(t *testing.T) {
		const ceiling = 500_000
		for seed := uint64(1); seed <= 4; seed++ {
			b0, _ := heapCounts()
			m := base.Snapshot()
			m.SetPerturbSeed(seed)
			if _, err := m.Run(5); err != nil {
				t.Fatal(err)
			}
			b1, _ := heapCounts()
			if got := b1 - b0; got > ceiling {
				t.Fatalf("seed %d: Snapshot + Run(5) allocated %d bytes, budget %d", seed, got, ceiling)
			}
		}
	})

	// 768 bytes and one object, the Machine struct: a snapshot taken over
	// the branch before finds everything that branch allocated waiting —
	// page copies and page tables, kernel queues, event heap, workload
	// thread array and plans, CPU array and bus queue — so what is left
	// is the odd page where its seed strays from every window before (5.9
	// KB and 6 objects at worst here). Generation 1 also makes the cache
	// spare lists and the workload's spare-plan index for the first time
	// (9.0 KB, 154 objects), so the objects ceiling starts at generation
	// 2. Generation 0 has nothing to build over and pays the fresh
	// branch's 0.43 MB. Wiring a registry, re-making the kernel and each
	// thread's first plan, and two registry snapshots per Run cost 57 KB
	// and ~164 objects a generation, which would fail here.
	t.Run("recycled", func(t *testing.T) {
		const ceiling, objCeiling = 13_500, 10
		var spent *Machine
		for gen := 0; gen <= 20; gen++ {
			b0, n0 := heapCounts()
			m := base.SnapshotOver(spent)
			m.SetPerturbSeed(100 + uint64(gen))
			if _, err := m.Run(5); err != nil {
				t.Fatal(err)
			}
			b1, n1 := heapCounts()
			if got := b1 - b0; gen > 0 && got > ceiling {
				t.Fatalf("generation %d: SnapshotOver + Run(5) allocated %d bytes, budget %d", gen, got, ceiling)
			}
			if got := n1 - n0; gen > 1 && got > objCeiling {
				t.Fatalf("generation %d: SnapshotOver + Run(5) allocated %d objects, budget %d", gen, got, objCeiling)
			}
			spent = m
		}
	})

	// A steady run's heap must not scale with its bus traffic: popping
	// the queue by re-slicing cost 121 bytes and 0.24 objects per bus
	// request (the append reallocated every few requests), and op
	// buffers growing to their threads' largest transaction another 22
	// bytes; what is left, 1.2 bytes per request, is plans re-made for a
	// transaction larger than any their thread has planned before. The
	// first window pays the branch's one-off page and plan copies and is
	// not measured.
	t.Run("steady", func(t *testing.T) {
		m := base.Snapshot()
		if _, err := m.Run(2000); err != nil {
			t.Fatal(err)
		}
		b0, n0 := heapCounts()
		res, err := m.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		b1, n1 := heapCounts()
		if res.BusRequests < 100_000 {
			t.Fatalf("only %d bus requests in 2000 txns: not the load this budget is about", res.BusRequests)
		}
		if bytes, ceiling := b1-b0, 2*res.BusRequests; bytes > ceiling {
			t.Fatalf("Run(2000) allocated %d bytes over %d bus requests, budget %d (2 bytes each)",
				bytes, res.BusRequests, ceiling)
		}
		if objects, ceiling := n1-n0, res.BusRequests/100; objects > ceiling {
			t.Fatalf("Run(2000) allocated %d objects over %d bus requests, budget %d", objects, res.BusRequests, ceiling)
		}
	})

	// Barnes to completion on the detailed core, from machine.New: the
	// scientific engine streams its ops from a position, and the miss
	// window retires in place, so New and the run allocate 5.91 MB, the
	// cache pages the 16 nodes write (0.36 MB in New, 5.55 MB in the
	// run) and ~20 KB of bus queue, miss windows and return stacks
	// reaching their working sizes. New and the run are bounded together
	// because a new cache claims its pages as the run first writes them;
	// while New allocated every page it was 5.93 MB + 17 KB. Per-phase op
	// buffers made the run megabytes a thread.
	t.Run("ooo", func(t *testing.T) {
		const ceiling = 6_000_000
		cfg := config.Default()
		cfg.Processor = config.OOOProc
		inst, err := workloads.New("barnes", cfg, 0xA1A3)
		if err != nil {
			t.Fatal(err)
		}
		b0, _ := heapCounts()
		m, err := New(cfg, inst, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := heapCounts()
		if res.Txns != 1 {
			t.Fatalf("Barnes ran %d transactions, want the whole program (1)", res.Txns)
		}
		if got := b1 - b0; got > ceiling {
			t.Fatalf("New and Barnes on the OOO core allocated %d bytes, budget %d", got, ceiling)
		}
	})
}
