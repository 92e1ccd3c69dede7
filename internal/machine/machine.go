// Package machine assembles the full target system: 16 processors with
// their cache hierarchies, the MOSI snooping interconnect, distributed
// memory controllers, disks, the operating-system model, and a workload
// instance — driven by the deterministic event kernel.
//
// A Machine is a pure function of (configuration, workload seed,
// perturbation seed): running it twice produces bit-identical results.
// Perturbation (§3.3 of the paper) adds a uniform pseudo-random 0..4 ns
// to every L2 miss; giving each run a unique perturbation seed creates
// the space of possible executions the paper's methodology samples.
package machine

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"varsim/internal/config"
	"varsim/internal/digest"
	"varsim/internal/dram"
	"varsim/internal/kernel"
	"varsim/internal/mem"
	"varsim/internal/metrics"
	"varsim/internal/rng"
	"varsim/internal/sim"
	"varsim/internal/trace"
	"varsim/internal/workload"
)

// simulatedNS accumulates simulated nanoseconds (= cycles at the
// modelled 1 GHz clock) advanced by measurement windows across every
// machine in the process. Harness drivers read it to report sim-cycles
// per wall second; it never feeds back into simulation.
var simulatedNS atomic.Int64

// SimulatedCycles returns the process-wide total of simulated cycles
// advanced so far.
func SimulatedCycles() int64 { return simulatedNS.Load() }

// Tunables of the OS/lock glue (in ns / counts). They are constants of
// the model, not experiment variables.
const (
	maxBatchInstr  = 2000 // instructions per CPU step event (time-skew bound)
	maxSpins       = 6    // lock acquire attempts before blocking
	spinBackoffNS  = 150
	wakeLatencyNS  = 2000 // scheduler wakeup (IPI + dispatch) latency
	lockPathNS     = 20   // lock bookkeeping cost on the fast path
	kernelTouches  = 4    // kernel working-set blocks touched per switch
	defaultMaxEvts = 2_000_000_000
)

// Result summarizes a measurement window.
type Result struct {
	Workload  string
	ElapsedNS int64
	Txns      int64
	CPT       float64 // cycles (ns) per transaction — the paper's metric
	Instrs    int64

	L1DMisses    uint64
	L1IMisses    uint64
	L2Misses     uint64
	BusRequests  uint64
	CacheToCache uint64
	MemFetches   uint64
	Writebacks   uint64

	CtxSwitches     uint64
	Preempts        uint64
	Steals          uint64
	LockContentions uint64
	Events          uint64
}

type busReq struct {
	cpu      int32
	block    uint64
	kind     mem.AccessKind
	issuedAt int64
	ifetch   bool
	token    int64 // response routing for the multi-outstanding OOO core
}

type busState struct {
	q      []busReq
	busy   bool
	freeAt int64
	reqs   uint64
}

type cpuState struct {
	pending    workload.Op
	hasPending bool
	waitingMem bool
	// memDone marks that the stalled access's response arrived: the op
	// completes without re-probing (the response carried the
	// data/permission), which guarantees forward progress even if a
	// contender steals the line between fill and response — the
	// transient-state behaviour of a real protocol.
	memDone     bool
	stallIfetch bool // the in-flight stall is an instruction fetch
	stepQueued  bool
	spins       int
	lastIfetch  uint64
	// quantumDeadline is when the running thread's scheduling quantum
	// expires (set at dispatch, jittered if configured).
	quantumDeadline int64
	ooo             *oooCore // non-nil when the detailed model is selected
}

// Machine is the simulated system.
type Machine struct {
	cfg       config.Config
	eng       *sim.Engine
	snoop     *mem.Snooper
	dram      *dram.Controllers
	disks     *dram.Disks
	os        *kernel.OS
	wl        workload.Instance
	runs      workload.RunStepper // wl's bulk form, when there is one and the core can use it (see setWorkload)
	perturb   rng.Stream
	cpus      []cpuState
	bus       busState
	blockBits uint
	spinLocks int32 // lock ids below this spin (latches); the rest block

	txnsDone   int64
	lastTxnNS  int64
	instrs     int64
	switchSalt uint64

	// Per-thread op state parked across preemption: a preempted thread
	// may be mid-operation (e.g. spinning on a latch); its pending op is
	// saved here and restored at its next dispatch.
	parkedOps  []workload.Op
	parkedOk   []bool
	parkedSpin []int

	tracer *trace.Buffer

	// series is the interval series of counters readings, non-nil only
	// when interval sampling is enabled (see EnableSampling).
	series *metrics.TimeSeries

	// digestRec, when non-nil, chains per-component state digests on
	// the same KindDrain cadence as the series (see EnableDigests).
	digestRec *digest.Recorder

	// Copy-on-write bookkeeping (see Freeze/Snapshot): frozen is true
	// when every lazily-copied structure has relinquished ownership
	// since the machine last ran; parkedShared marks the parked-op
	// arrays as aliased with a snapshot.
	frozen       bool
	parkedShared bool

	maxEvents uint64

	// open is the counters at the start of the window Run or RunNS
	// measures. It is kept here rather than in Run's frame: the whole
	// simulation runs below that frame, and 88 bytes more in it moved
	// the event loop's stack enough to cost the OOO core 7–10 % on a
	// 2-vCPU Intel Xeon host.
	open counters
}

// EnableTrace attaches a structured trace buffer retaining up to
// capEvents events (0 = unbounded): dispatches, blocks, wakes, lock
// operations and transaction completions. See the trace package for the
// analyses built on it.
func (m *Machine) EnableTrace(capEvents int) { m.tracer = trace.NewBuffer(capEvents) }

// Trace returns the structured trace buffer (nil unless EnableTrace was
// called).
func (m *Machine) Trace() *trace.Buffer { return m.tracer }

// emit appends a structured trace event if tracing is enabled.
func (m *Machine) emit(t int64, k trace.Kind, cpu, tid int32, arg int64) {
	if m.tracer != nil {
		m.tracer.Append(trace.Event{TimeNS: t, Kind: k, CPU: cpu, Thread: tid, Arg: arg})
	}
}

// New builds a machine running wl under cfg. workloadSeed is already
// baked into wl; perturbSeed selects this run's timing-perturbation
// stream.
func New(cfg config.Config, wl workload.Instance, perturbSeed uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if wl.NumThreads() <= 0 {
		return nil, errors.New("machine: workload has no threads")
	}
	nodes := make([]*mem.NodeCaches, cfg.NumCPUs)
	for i := range nodes {
		nodes[i] = mem.NewNodeCaches(cfg)
	}
	nLocks := wl.NumLocks()
	if nLocks < 1 {
		nLocks = 1
	}
	snooper := mem.NewSnooper(nodes)
	if cfg.CoherenceMESI {
		snooper.Protocol = mem.MESI
	}
	m := &Machine{
		cfg:        cfg,
		eng:        sim.NewEngine(),
		snoop:      snooper,
		dram:       dram.NewControllers(cfg.NumCPUs, cfg.MemSupplyNS, cfg.DRAMBanksPerCtl),
		disks:      dram.NewDisks(8), // disk 0: log; 1..: data (§3.1: 5 data + log)
		os:         kernel.New(cfg.NumCPUs, wl.NumThreads(), nLocks, max(wl.NumBarriers(), 1), wl.NumThreads()),
		perturb:    rng.New(perturbSeed),
		cpus:       make([]cpuState, cfg.NumCPUs),
		blockBits:  cfg.L2.BlockBits,
		spinLocks:  int32(wl.NumSpinLocks()),
		maxEvents:  defaultMaxEvts,
		parkedOps:  make([]workload.Op, wl.NumThreads()),
		parkedOk:   make([]bool, wl.NumThreads()),
		parkedSpin: make([]int, wl.NumThreads()),
	}
	m.setWorkload(wl)
	for i := range m.cpus {
		m.cpus[i].lastIfetch = ^uint64(0)
		if cfg.Processor == config.OOOProc {
			m.cpus[i].ooo = newOOOCore(cfg.OOO)
		}
		m.scheduleStep(int32(i), 0)
	}
	return m, nil
}

// setWorkload installs the instance the machine draws its ops from,
// and with it the instance's bulk form for compute runs when the simple
// core is modelled: that core reads nothing of a run's ops but their
// PCs and instruction counts, whereas the OOO core's predictors must see
// every branch. The one place m.wl is assigned, so a snapshot cannot
// keep stepping its parent's engine, or lose the bulk path silently.
func (m *Machine) setWorkload(wl workload.Instance) {
	m.wl, m.runs = wl, nil
	if m.cfg.Processor == config.SimpleProc {
		m.runs, _ = wl.(workload.RunStepper)
	}
}

// SetPerturbSeed re-seeds the perturbation stream; used after Snapshot to
// branch multiple differently-perturbed futures from one checkpoint.
func (m *Machine) SetPerturbSeed(seed uint64) { m.perturb = rng.New(seed) }

// Now returns the simulated time.
func (m *Machine) Now() int64 { return m.eng.Now() }

// Config returns the machine's configuration.
func (m *Machine) Config() config.Config { return m.cfg }

// Workload returns the machine's workload instance.
func (m *Machine) Workload() workload.Instance { return m.wl }

// counters is one reading of the cumulative counts a Result is the
// difference of, taken at the start and the end of a window, and that
// the interval series samples at every tick (see row): a Result and the
// series CSV have one source.
type counters struct {
	instrs, txns, events, busRequests          uint64
	l1iMisses, l1dMisses, l2Misses, l2Accesses uint64
	cacheToCache, memFetches, writebacks       uint64
	ctxSwitches, preempts, steals              uint64
	lockAcquisitions, lockContentions          uint64
}

func (m *Machine) counters() counters {
	c := counters{
		instrs:       uint64(m.instrs),
		txns:         uint64(m.txnsDone),
		events:       m.eng.Steps(),
		busRequests:  m.bus.reqs,
		cacheToCache: m.snoop.CacheToCache,
		memFetches:   m.snoop.MemFetches,
		writebacks:   m.snoop.Writebacks,
		ctxSwitches:  m.os.CtxSwitches(),
		preempts:     m.os.Preempts,
		steals:       m.os.Steals,
	}
	c.l1iMisses, c.l1dMisses, c.l2Misses, c.l2Accesses = m.snoop.CacheCounts()
	c.lockAcquisitions, c.lockContentions = m.os.LockCounts()
	return c
}

// result measures the window from m.open, read at simulated time
// startNS, to now, its elapsed time ending at endNS.
func (m *Machine) result(startNS, endNS int64) Result {
	start, end := &m.open, m.counters()
	elapsed := endNS - startNS
	simulatedNS.Add(elapsed)
	txns := int64(end.txns - start.txns)
	cpt := 0.0
	if txns > 0 {
		cpt = float64(elapsed) / float64(txns)
	}
	return Result{
		Workload:  m.wl.Name(),
		ElapsedNS: elapsed,
		Txns:      txns,
		CPT:       cpt,
		Instrs:    int64(end.instrs - start.instrs),

		L1DMisses:    end.l1dMisses - start.l1dMisses,
		L1IMisses:    end.l1iMisses - start.l1iMisses,
		L2Misses:     end.l2Misses - start.l2Misses,
		BusRequests:  end.busRequests - start.busRequests,
		CacheToCache: end.cacheToCache - start.cacheToCache,
		MemFetches:   end.memFetches - start.memFetches,
		Writebacks:   end.writebacks - start.writebacks,

		CtxSwitches:     end.ctxSwitches - start.ctxSwitches,
		Preempts:        end.preempts - start.preempts,
		Steals:          end.steals - start.steals,
		LockContentions: end.lockContentions - start.lockContentions,
		Events:          end.events - start.events,
	}
}

// Run simulates until n more transactions complete (or all threads
// terminate, for fixed-work scientific programs) and returns the
// measurement for that window. The elapsed time is measured from the
// current simulated time to the completion of the last transaction.
func (m *Machine) Run(n int64) (Result, error) {
	if n <= 0 {
		return Result{}, errors.New("machine: Run needs a positive transaction count")
	}
	if m.snoop == nil {
		return Result{}, errSpent
	}
	m.open = m.counters()
	startNS := m.eng.Now()
	target := m.txnsDone + n
	m.frozen = false // running mutates COW state; next Snapshot re-freezes
	ok := m.eng.RunUntil(m, func() bool {
		return m.txnsDone >= target || m.os.AllDone()
	}, m.maxEvents)
	if !ok {
		return Result{}, fmt.Errorf("machine: run did not complete (deadlock or >%d events; txns=%d/%d, pending=%d)",
			m.maxEvents, m.txnsDone-(target-n), n, m.eng.Pending())
	}
	endNS := m.lastTxnNS
	if endNS < startNS {
		endNS = m.eng.Now()
	}
	return m.result(startNS, endNS), nil
}

// RunNS simulates for a fixed span of simulated time (used for the
// "real machine" interval experiments, Figures 2–3).
func (m *Machine) RunNS(ns int64) (Result, error) {
	if ns <= 0 {
		return Result{}, errors.New("machine: RunNS needs a positive duration")
	}
	if m.snoop == nil {
		return Result{}, errSpent
	}
	m.open = m.counters()
	startNS := m.eng.Now()
	deadline := startNS + ns
	m.frozen = false // running mutates COW state; next Snapshot re-freezes
	ok := m.eng.RunUntil(m, func() bool {
		return m.eng.Now() >= deadline || m.os.AllDone()
	}, m.maxEvents)
	if !ok {
		return Result{}, fmt.Errorf("machine: RunNS exceeded event budget %d", m.maxEvents)
	}
	return m.result(startNS, m.eng.Now()), nil
}

// Freeze relinquishes the machine's ownership of every structure its
// snapshots share copy-on-write — cache line pages, predictor tables,
// workload transaction plans, the parked-op arrays — so that Snapshot copies
// page tables and slice headers instead of state. O(components), not
// O(state). Freeze on an already-frozen machine performs no writes,
// which is what makes concurrent Snapshots of a frozen base safe;
// running the machine un-freezes it, so re-Freeze (or take one
// sequential Snapshot) before branching concurrently again.
func (m *Machine) Freeze() {
	if m.frozen {
		return
	}
	m.snoop.Freeze()
	for i := range m.cpus {
		if c := m.cpus[i].ooo; c != nil {
			c.bp.Freeze()
		}
	}
	if f, ok := m.wl.(workload.Freezer); ok {
		f.Freeze()
	}
	m.parkedShared = true
	m.frozen = true
}

// ensureParked copies the parked-op arrays before their first write
// after a snapshot shared them.
func (m *Machine) ensureParked() {
	if !m.parkedShared {
		return
	}
	m.parkedShared = false
	m.parkedOps = append([]workload.Op(nil), m.parkedOps...)
	m.parkedOk = append([]bool(nil), m.parkedOk...)
	m.parkedSpin = append([]int(nil), m.parkedSpin...)
}

// errSpent is what using a machine after handing it to SnapshotOver
// gets: its cache storage belongs to another machine by then.
var errSpent = errors.New("machine: used after SnapshotOver took its storage")

// Snapshot captures the machine — the analogue of a Simics checkpoint
// (§3.2.2). The copy can be re-seeded with SetPerturbSeed to branch an
// independent perturbed future from the same initial conditions.
//
// Snapshots are copy-on-write: the big state (cache line pages,
// predictor tables, workload transaction plans) is shared
// with the parent and copied lazily, page by page, as either side
// writes it — so Snapshot itself is O(metadata) and branches touching
// little state stay cheap. Snapshot freezes an unfrozen machine (a
// write); to snapshot one machine from several goroutines at once,
// call Freeze first — Snapshot on a frozen machine only reads it.
func (m *Machine) Snapshot() *Machine { return m.SnapshotOver(nil) }

// SnapshotOver is Snapshot taken over the storage of spent, a machine
// whose run is over and whose results have been read (nil for none).
// What spent allocated while it ran becomes the snapshot's instead of
// garbage: its cache pages and page tables (see mem.Snooper.CloneOver),
// its kernel, event heap, memory controllers and disks, its workload
// engine's thread array and the plans its threads wrote (as spares, see
// workload.Instance), its CPU array and bus queue with their capacity.
// Any part whose shape differs is allocated afresh, so spent may be a
// machine of any configuration or workload, and the snapshot is the one
// Snapshot would return — nothing of spent but capacity is read.
// spent is unusable afterwards: its Run fails and its Snapshot
// panics, as does SnapshotOver with m itself as spent.
func (m *Machine) SnapshotOver(spent *Machine) *Machine {
	if spent == m {
		panic("machine: SnapshotOver of a machine over its own storage")
	}
	if m.snoop == nil {
		panic(errSpent)
	}
	if !m.frozen {
		m.Freeze()
	}
	var old Machine
	if spent != nil {
		old, *spent = *spent, Machine{}
	}
	c := *m
	c.eng = m.eng.CloneOver(old.eng)
	c.snoop = m.snoop.CloneOver(old.snoop)
	c.dram = m.dram.CloneOver(old.dram)
	c.disks = m.disks.CloneOver(old.disks)
	c.os = m.os.CloneOver(old.os)
	c.setWorkload(m.wl.CloneOver(old.wl))
	// The CPU array is spent's when it is large enough; a detailed core is
	// copied into the one spent had at the same index, if any.
	c.cpus = slices.Grow(old.cpus[:0], len(m.cpus))
	for i, cs := range m.cpus {
		if cs.ooo != nil {
			var core *oooCore
			if i < len(old.cpus) {
				core = old.cpus[i].ooo
			}
			cs.ooo = cs.ooo.cloneOver(core)
		}
		c.cpus = append(c.cpus, cs)
	}
	c.bus.q = append(old.bus.q[:0], m.bus.q...)
	if m.tracer != nil {
		c.tracer = m.tracer.Clone()
	}
	// The parked-op arrays ride along shared (parkedShared was set by
	// Freeze and copied into c above); ensureParked copies them on the
	// first park/restore of either side.
	if m.series != nil {
		series := m.series.Clone()
		c.series = &series
	}
	if m.digestRec != nil {
		c.digestRec = m.digestRec.Clone()
	}
	return &c
}

// Materialize forces ownership of everything a copy-on-write Snapshot
// left shared — cache pages, predictor tables, workload plans,
// parked ops — turning this machine into a full deep copy. Simulation
// never needs it (writes materialize lazily); it exists to price lazy
// against eager copying (the benchmark spine's machine.materialize_ms)
// and to pin COW-vs-deep equivalence, in tests and in the spine's check
// of branch 0 against its materialized twin.
func (m *Machine) Materialize() {
	m.snoop.Materialize()
	for i := range m.cpus {
		if c := m.cpus[i].ooo; c != nil {
			c.bp.Materialize()
		}
	}
	if mat, ok := m.wl.(workload.Materializer); ok {
		mat.Materialize()
	}
	m.ensureParked()
	m.frozen = false
}
