// Package workloads defines the seven benchmark stand-ins of the paper's
// evaluation (§3.1, Table 3): OLTP (DB2 + TPC-C-like), Apache (static
// web serving), SPECjbb (Java server), Slashcode (dynamic web), ECPerf
// (3-tier Java), and the SPLASH-2 codes Barnes-Hut and Ocean.
//
// Each is a parameterization of the generic engines in
// internal/workload. The parameters encode the structural properties
// that drive variability in the originals: degree of OS
// over-subscription, lock contention, shared working sets, I/O blocking,
// and lifetime phase behaviour (database growth, JIT warm-up, GC pauses,
// log-flush storms). Absolute instruction counts are scaled down ~10³
// from the originals so experiments finish on one host; the paper's
// conclusions are about relative/statistical behaviour, which the
// scaling preserves (see DESIGN.md §5).
package workloads

import (
	"fmt"
	"sort"

	"varsim/internal/config"
	"varsim/internal/workload"
)

// Names lists the supported workloads in Table 3's order.
func Names() []string {
	names := make([]string, 0, len(registry))
	//varsim:allow maporder key collection only; sorted before return
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultTxns returns the per-benchmark transaction count used for the
// space-variability comparison (Table 3; scaled where the paper's counts
// are infeasible here — see DESIGN.md).
func DefaultTxns(name string) int64 {
	switch name {
	case "barnes", "ocean":
		return 1
	case "ecperf":
		return 5
	case "slashcode":
		return 30
	case "oltp":
		return 1000
	case "apache":
		return 5000
	case "specjbb":
		return 6000 // paper: 60,000; scaled 10x (same per-txn granularity)
	}
	return 0
}

type maker func(cfg config.Config, seed uint64) workload.Instance

var registry = map[string]maker{
	"oltp":      newOLTP,
	"apache":    newApache,
	"specjbb":   newSPECjbb,
	"slashcode": newSlashcode,
	"ecperf":    newECPerf,
	"barnes":    newBarnes,
	"ocean":     newOcean,
}

// New builds workload name for the given system configuration. seed
// fixes the workload's identity (database contents, transaction feed):
// it is the "checkpoint" all runs of an experiment share.
func New(name string, cfg config.Config, seed uint64) (workload.Instance, error) {
	if err := Check(name); err != nil {
		return nil, err
	}
	return registry[name](cfg, seed), nil
}

// Check returns the error New gives for a name it does not know, and
// nil for one it does, without building anything.
func Check(name string) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	return nil
}

// newOLTP models DB2 running a TPC-C-like mix (§3.1): 8 database threads
// per processor, five transaction classes, district locks, a global log
// with group commit, and five data disks plus a dedicated log disk.
// Lifetime phases: working-set growth plus periodic checkpoint/flush
// storms.
func newOLTP(cfg config.Config, seed uint64) workload.Instance {
	tpc := cfg.ThreadsPerCPU
	if tpc <= 0 {
		tpc = 8
	}
	const (
		customer = iota
		stock
		orders
		item
		district
		warehouse
	)
	prof := workload.TxnProfile{
		Name:    "oltp",
		Threads: cfg.NumCPUs * tpc,
		Tables: []workload.Table{
			{Name: "customer", Rows: 192 << 10, RowBytes: 128, Theta: 0.65},
			{Name: "stock", Rows: 128 << 10, RowBytes: 128, Theta: 0.70},
			{Name: "orders", Rows: 64 << 10, RowBytes: 64, Theta: 0.60},
			{Name: "item", Rows: 32 << 10, RowBytes: 64, Theta: 0.80},
			{Name: "district", Rows: 1024, RowBytes: 64, Theta: 0.50},
			{Name: "warehouse", Rows: 64, RowBytes: 64, Theta: 0.30},
		},
		Classes: []workload.TxnClass{
			{Name: "neworder", Weight: 45, Steps: 16, InstrPerStep: 130, Reads: 2, Writes: 1,
				Tables: []int{customer, stock, item, district}, LockFamily: 0, LockedFrac: 0.5,
				LogRecords: 3, IOProb: 0.15, IOMeanNS: 20_000},
			{Name: "payment", Weight: 43, Steps: 10, InstrPerStep: 120, Reads: 1, Writes: 1,
				Tables: []int{customer, district, warehouse}, LockFamily: 0, LockedFrac: 0.4,
				LogRecords: 2, IOProb: 0.10, IOMeanNS: 15_000},
			{Name: "orderstatus", Weight: 4, Steps: 12, InstrPerStep: 140, Reads: 3, Writes: 0,
				Tables: []int{customer, orders}, LockFamily: -1,
				LogRecords: 0, IOProb: 0.20, IOMeanNS: 20_000},
			{Name: "delivery", Weight: 4, Steps: 18, InstrPerStep: 160, Reads: 2, Writes: 2,
				Tables: []int{orders, customer, district}, LockFamily: 0, LockedFrac: 0.6,
				LogRecords: 4, IOProb: 0.20, IOMeanNS: 25_000},
			{Name: "stocklevel", Weight: 4, Steps: 20, InstrPerStep: 150, Reads: 4, Writes: 0,
				Tables: []int{stock, district}, LockFamily: -1,
				LogRecords: 0, IOProb: 0.25, IOMeanNS: 25_000},
		},
		LockFamilies:  []int{256}, // district locks
		HasLog:        true,
		LogRecBytes:   128,
		FlushEvery:    32,
		FlushNS:       25_000,
		GroupCommit:   false, // flush outside the latch; appenders continue
		LogLatch:      true,  // DB2-style log-tail latch: spin, don't block
		DataDisks:     5,
		PrivatePerOp:  2,
		BranchEvery:   6,
		BranchSites:   48,
		IndirectEvery: 12,
		Phase: workload.PhaseModel{
			TrendAmp: 0.50, TrendScale: 2500, // database growth
			CycleAmp: 0.08, CyclePer: 700, // buffer-pool cycling
			BurstEvery: 500, BurstLen: 40, BurstMult: 1.35, // checkpoint storms
		},
	}
	return workload.NewTxnEngine(prof, seed)
}

// newApache models static web content serving: many short read-mostly
// requests against a hot file cache, frequent disk reads, an access log
// without group commit, light locking.
func newApache(cfg config.Config, seed uint64) workload.Instance {
	prof := workload.TxnProfile{
		Name:    "apache",
		Threads: cfg.NumCPUs * 4,
		Tables: []workload.Table{
			{Name: "filecache", Rows: 256 << 10, RowBytes: 128, Theta: 0.85},
			{Name: "metadata", Rows: 32 << 10, RowBytes: 64, Theta: 0.70},
		},
		Classes: []workload.TxnClass{
			{Name: "static-get", Weight: 90, Steps: 3, InstrPerStep: 400, Reads: 2, Writes: 0,
				Tables: []int{0}, LockFamily: -1,
				LogRecords: 1, IOProb: 0.25, IOMeanNS: 15_000},
			{Name: "cgi", Weight: 10, Steps: 6, InstrPerStep: 600, Reads: 2, Writes: 1,
				Tables: []int{1}, LockFamily: 0, LockedFrac: 0.3,
				LogRecords: 1, IOProb: 0.35, IOMeanNS: 20_000},
		},
		LockFamilies:  []int{64},
		HasLog:        true,
		LogRecBytes:   64,
		FlushEvery:    64,
		FlushNS:       15_000,
		GroupCommit:   false,
		LogLatch:      true,
		DataDisks:     4,
		PrivatePerOp:  1,
		BranchEvery:   7,
		BranchSites:   32,
		IndirectEvery: 10,
		Phase: workload.PhaseModel{
			CycleAmp: 0.05, CyclePer: 2000,
		},
	}
	return workload.NewTxnEngine(prof, seed)
}

// newSPECjbb models the Java server benchmark: one thread per processor
// operating on its own warehouse (partitioned data, no I/O, no log), so
// space variability is nearly zero — but strong time variability from
// JIT warm-up and periodic garbage-collection pauses (the paper's
// example of a benchmark with only time variability, §5.1/Fig 9b).
func newSPECjbb(cfg config.Config, seed uint64) workload.Instance {
	prof := workload.TxnProfile{
		Name:    "specjbb",
		Threads: cfg.NumCPUs,
		Tables: []workload.Table{
			{Name: "warehouses", Rows: 256 << 10, RowBytes: 128, Theta: 0.60},
			{Name: "company", Rows: 512, RowBytes: 64, Theta: 0.40},
		},
		Classes: []workload.TxnClass{
			{Name: "neworder", Weight: 40, Steps: 3, InstrPerStep: 200, Reads: 2, Writes: 1,
				Tables: []int{0}, LockFamily: -1, Partition: true},
			{Name: "payment", Weight: 40, Steps: 2, InstrPerStep: 180, Reads: 1, Writes: 1,
				Tables: []int{0}, LockFamily: -1, Partition: true},
			{Name: "stocklevel", Weight: 20, Steps: 4, InstrPerStep: 220, Reads: 3, Writes: 0,
				Tables: []int{0, 1}, LockFamily: -1, Partition: true},
		},
		LockFamilies:  nil,
		HasLog:        false,
		DataDisks:     1,
		PrivatePerOp:  2,
		BranchEvery:   5,
		BranchSites:   64,
		IndirectEvery: 6, // heavy virtual dispatch
		Phase: workload.PhaseModel{
			TrendAmp: -0.22, TrendScale: 3500, // JIT warm-up
			BurstEvery: 1500, BurstLen: 60, BurstMult: 1.9, // GC pauses
		},
	}
	return workload.NewTxnEngine(prof, seed)
}

// newSlashcode models dynamic web content serving: few, heavy
// transactions, hot shared comment tables, coarse locks held long, group
// commit — the paper's most variable benchmark (14.45% range).
func newSlashcode(cfg config.Config, seed uint64) workload.Instance {
	prof := workload.TxnProfile{
		Name:    "slashcode",
		Threads: cfg.NumCPUs * 2,
		Tables: []workload.Table{
			{Name: "comments", Rows: 128 << 10, RowBytes: 128, Theta: 0.90},
			{Name: "stories", Rows: 8 << 10, RowBytes: 128, Theta: 0.95},
			{Name: "users", Rows: 64 << 10, RowBytes: 64, Theta: 0.70},
		},
		Classes: []workload.TxnClass{
			{Name: "render-page", Weight: 60, Steps: 20, InstrPerStep: 800, Reads: 4, Writes: 1,
				Tables: []int{0, 1, 2}, LockFamily: 0, LockedFrac: 0.7,
				LogRecords: 2, IOProb: 0.40, IOMeanNS: 30_000},
			{Name: "post-comment", Weight: 40, Steps: 24, InstrPerStep: 700, Reads: 3, Writes: 3,
				Tables: []int{0, 2}, LockFamily: 0, LockedFrac: 0.8,
				LogRecords: 4, IOProb: 0.45, IOMeanNS: 35_000},
		},
		LockFamilies:  []int{8}, // very coarse table locks
		HasLog:        true,
		LogRecBytes:   128,
		FlushEvery:    8,
		FlushNS:       40_000,
		GroupCommit:   true,
		DataDisks:     3,
		PrivatePerOp:  2,
		BranchEvery:   6,
		BranchSites:   64,
		IndirectEvery: 8,
		Phase: workload.PhaseModel{
			CycleAmp: 0.10, CyclePer: 40,
		},
	}
	return workload.NewTxnEngine(prof, seed)
}

// newECPerf models the 3-tier Java workload: moderately long
// transactions across order-entry and manufacturing domains, mid-level
// contention and I/O.
func newECPerf(cfg config.Config, seed uint64) workload.Instance {
	prof := workload.TxnProfile{
		Name:    "ecperf",
		Threads: cfg.NumCPUs * 3,
		Tables: []workload.Table{
			{Name: "orders", Rows: 96 << 10, RowBytes: 128, Theta: 0.75},
			{Name: "parts", Rows: 64 << 10, RowBytes: 128, Theta: 0.70},
			{Name: "customers", Rows: 64 << 10, RowBytes: 64, Theta: 0.65},
		},
		Classes: []workload.TxnClass{
			{Name: "order-entry", Weight: 60, Steps: 16, InstrPerStep: 700, Reads: 3, Writes: 1,
				Tables: []int{0, 2}, LockFamily: 0, LockedFrac: 0.5,
				LogRecords: 2, IOProb: 0.30, IOMeanNS: 25_000},
			{Name: "manufacturing", Weight: 40, Steps: 18, InstrPerStep: 800, Reads: 2, Writes: 2,
				Tables: []int{1, 0}, LockFamily: 0, LockedFrac: 0.5,
				LogRecords: 3, IOProb: 0.30, IOMeanNS: 25_000},
		},
		LockFamilies:  []int{32},
		HasLog:        true,
		LogRecBytes:   128,
		FlushEvery:    16,
		FlushNS:       25_000,
		GroupCommit:   false,
		LogLatch:      true,
		DataDisks:     3,
		PrivatePerOp:  2,
		BranchEvery:   5,
		BranchSites:   64,
		IndirectEvery: 7,
		Phase: workload.PhaseModel{
			TrendAmp: -0.15, TrendScale: 400, // container warm-up
			CycleAmp: 0.06, CyclePer: 50,
		},
	}
	return workload.NewTxnEngine(prof, seed)
}

// newBarnes models Barnes-Hut (16K bodies): one thread per processor,
// barrier phases, read-shared tree walks with high locality, private
// body updates — the paper's least variable benchmark (0.59% range).
func newBarnes(cfg config.Config, seed uint64) workload.Instance {
	prof := workload.SciProfile{
		Name:           "barnes",
		Threads:        cfg.NumCPUs,
		Phases:         12,
		InstrPerPhase:  40_000,
		PartitionBytes: 512 << 10,
		SweepStride:    256,
		SharedBytes:    8 << 20,
		SharedReads:    200,
		SharedTheta:    0.60,
		BoundaryRows:   0,
		WriteFrac:      0.25,
	}
	return workload.NewSciEngine(prof, seed)
}

// newOcean models Ocean (514x514 grid): streaming sweeps over private
// grid partitions with neighbour boundary exchange at each phase.
func newOcean(cfg config.Config, seed uint64) workload.Instance {
	prof := workload.SciProfile{
		Name:           "ocean",
		Threads:        cfg.NumCPUs,
		Phases:         24,
		InstrPerPhase:  30_000,
		PartitionBytes: 2 << 20,
		SweepStride:    64,
		SharedBytes:    1 << 20,
		SharedReads:    32,
		SharedTheta:    0.50,
		BoundaryRows:   16,
		WriteFrac:      0.50,
	}
	return workload.NewSciEngine(prof, seed)
}
