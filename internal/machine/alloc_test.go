package machine

import (
	"runtime"
	"testing"

	"varsim/internal/config"
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
// branch_fanout and steady_oltp workloads time. The ceilings sit well
// above the measured figures (in the comments) and well below what the
// array-of-structs cache layout, nil-regrown op buffers and re-sliced
// bus queue cost before them.
func TestAllocationBudgets(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 8
	base := mustMachine(t, cfg, "oltp", 0xA1A3, 1)
	if _, err := base.Run(2000); err != nil {
		t.Fatal(err)
	}
	base.Freeze()

	// 75.6 KB with 512-line pages and per-page epochs; the 128-line tag
	// pages quadruple the L2 page count, and pointer-sized entries plus a
	// one-bit ownership map hold the growth to 85.8 KB.
	t.Run("snapshot", func(t *testing.T) {
		const before, ceiling = 75_600, 75_600 * 3 / 2
		b0, _ := heapCounts()
		m := base.Snapshot()
		b1, _ := heapCounts()
		runtime.KeepAlive(m)
		if got := b1 - b0; got > ceiling {
			t.Fatalf("Snapshot allocated %d bytes, budget %d (1.5x the %d of the unpacked layout)", got, ceiling, before)
		}
	})

	// 4.1-4.2 MB before, 1.07 MB now: read hits copy 1 KiB rank pages
	// instead of 16 KiB line pages, fills copy 1 KiB tag pages, and the
	// op buffers are allocated once at their old capacity.
	t.Run("branch", func(t *testing.T) {
		const ceiling = 2_200_000
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

	// A steady run's heap must not scale with its bus traffic: popping
	// the queue by re-slicing cost 121 bytes and 0.24 objects per bus
	// request (the append reallocated every few requests); popping in
	// place leaves 22 bytes and under 0.001 objects per request, all of
	// it op buffers growing to their threads' largest transaction. The
	// first window pays the branch's one-off page and buffer copies and
	// is not measured.
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
		if bytes, ceiling := b1-b0, 40*res.BusRequests; bytes > ceiling {
			t.Fatalf("Run(2000) allocated %d bytes over %d bus requests, budget %d (one 40-byte busReq each)",
				bytes, res.BusRequests, ceiling)
		}
		if objects, ceiling := n1-n0, res.BusRequests/100; objects > ceiling {
			t.Fatalf("Run(2000) allocated %d objects over %d bus requests, budget %d", objects, res.BusRequests, ceiling)
		}
	})
}
