package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"varsim/internal/machine"
)

// A workload is one of the benchmark's named inputs. The run shape in
// measure drives all five through this interface.
type workload interface {
	// setup builds the starting state the iterations run from. It is
	// repeated and timed as setup_s; the last build is the one used.
	setup(tr *tracer) error
	// iterate runs one fixed-size iteration and tallies its runs.
	iterate(tr *tracer) (*tally, error)
	// verify runs the checks that need doing once per process, given the
	// warm iteration's tally.
	verify(warm *tally, c *checker)
	// layers takes the workload's own per-layer measurements in the
	// traced pass, after the profiled iterations.
	layers(tr *tracer, m map[string]float64) error
}

// checker counts correctness checks: every check is one op, every
// failed one a failed op.
type checker struct {
	ops, failed int
	msgs        []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.ops++
	if ok {
		return
	}
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// tally folds the results of one iteration's runs: the exact simulated
// counts the per-layer budget reports and the checksum two commits are
// compared by.
type tally struct {
	checker
	runs     int
	instrs   int64
	cpuNS    int64 // Σ ElapsedNS × CPUs, the denominator of IPC
	cptSum   float64
	l1d, l2  uint64
	bus, c2c uint64
	memFetch uint64
	wb       uint64
	ctx, pre uint64
	lockCont uint64
	events   uint64
	sum      hash.Hash64
}

func newTally() *tally { return &tally{sum: fnv.New64a()} }

// add folds one run: its counts, its checksum, and the check that it
// ran the transactions asked of it.
func (t *tally) add(r machine.Result, cpus int, wantTxns int64) {
	t.check(r.Txns == wantTxns && !math.IsNaN(r.CPT) && !math.IsInf(r.CPT, 0),
		"%s run completed %d of %d txns, cpt %v", r.Workload, r.Txns, wantTxns, r.CPT)
	t.runs++
	t.instrs += r.Instrs
	t.cpuNS += r.ElapsedNS * int64(cpus)
	t.cptSum += r.CPT
	t.l1d += r.L1DMisses
	t.l2 += r.L2Misses
	t.bus += r.BusRequests
	t.c2c += r.CacheToCache
	t.memFetch += r.MemFetches
	t.wb += r.Writebacks
	t.ctx += r.CtxSwitches
	t.pre += r.Preempts
	t.lockCont += r.LockContentions
	t.events += r.Events
	fmt.Fprintf(t.sum, "%+v\n", r)
}

func (t *tally) checksum() string { return fmt.Sprintf("%016x", t.sum.Sum64()) }

// counts are the exact (C) per-layer metrics of one iteration.
func (t *tally) counts(m map[string]float64) {
	m["sim.events"] = float64(t.events)
	m["mem.l1d_misses"] = float64(t.l1d)
	m["mem.l2_misses"] = float64(t.l2)
	m["mem.bus_requests"] = float64(t.bus)
	m["mem.cache_to_cache"] = float64(t.c2c)
	m["mem.writebacks"] = float64(t.wb)
	m["dram.mem_fetches"] = float64(t.memFetch)
	m["kernel.ctx_switches"] = float64(t.ctx)
	m["kernel.preempts"] = float64(t.pre)
	m["kernel.lock_contentions"] = float64(t.lockCont)
	m["machine.instrs"] = float64(t.instrs)
	if t.instrs > 0 {
		m["mem.l2_miss_per_kinstr"] = 1000 * float64(t.l2) / float64(t.instrs)
	}
	if t.runs > 0 {
		m["machine.cpt"] = t.cptSum / float64(t.runs)
	}
	if t.cpuNS > 0 {
		m["machine.ipc"] = float64(t.instrs) / float64(t.cpuNS)
	}
}

// span is one timed call into a layer, recorded by the bench around the
// layer's public function.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at the top
	start, end time.Duration
}

// tracer records spans in memory. A nil tracer records nothing, so the
// untraced pass pays one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

var noop = func() {}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].end = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// spanRow is every span of one name folded together.
type spanRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"` // total minus the time its child spans cover
}

func (t *tracer) rows() []spanRow {
	if t == nil {
		return nil
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	byName := map[string]*spanRow{}
	var order []string
	for i, s := range t.spans {
		r := byName[s.name]
		if r == nil {
			r = &spanRow{Name: s.name}
			byName[s.name] = r
			order = append(order, s.name)
		}
		r.Count++
		r.TotalS += (s.end - s.start).Seconds()
		r.SelfS += self[i].Seconds()
	}
	rows := make([]spanRow, len(order))
	for i, n := range order {
		rows[i] = *byName[n]
	}
	return rows
}

// total returns the summed duration and the count of the named spans.
func (t *tracer) total(name string) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end - s.start
			n++
		}
	}
	return sum, n
}

// mean returns the mean duration of the named spans in the given unit
// (0 when none were recorded).
func (t *tracer) mean(name string, unit time.Duration) float64 {
	sum, n := t.total(name)
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(unit)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does, which is the rule the
// A/B driver applies to the runs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// heapAllocated returns the bytes the Go heap has handed out so far.
func heapAllocated() (bytes uint64, gcs uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC, time.Duration(ms.PauseTotalNs)
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// timed is what one timed iteration cost the host.
type timed struct {
	wall    time.Duration
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
	t       *tally
}

// runIteration times one iteration with the collector quiesced first, so
// every repeat starts from the same heap.
func runIteration(w workload, tr *tracer) (timed, error) {
	runtime.GC()
	a0, g0, p0 := heapAllocated()
	start := time.Now()
	t, err := w.iterate(tr)
	wall := time.Since(start)
	a1, g1, p1 := heapAllocated()
	return timed{wall: wall, alloc: a1 - a0, gcs: g1 - g0, gcPause: p1 - p0, t: t}, err
}

const setupBudget = time.Second

// measured is everything one process learned about one workload.
type measured struct {
	checker
	checksum string
	setupS   []float64
	iters    []timed // untraced timed iterations
	layer    map[string]float64
	shares   cpuShares
	spans    []spanRow
	peakRSS  float64
}

// measure runs one workload in the benchmark's run shape: repeated
// timed set-up, one warm iteration, fixed-size timed iterations until
// the budget is spent, then the once-only checks. With traced
// set it shortens the untraced loop to a baseline and follows it with
// the span-and-profile pass that fills the per-layer budget.
func measure(w workload, e *env, traced bool) (*measured, error) {
	m := &measured{}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set-up repeats SetupReps times, and a cheap one goes on until it
	// has filled setupBudget, so a millisecond build is not one sample.
	for begin := time.Now(); len(m.setupS) < e.sc.SetupReps ||
		(len(m.setupS) < e.sc.MaxSetupReps && time.Since(begin) < setupBudget); {
		runtime.GC()
		start := time.Now()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}

	warm, err := w.iterate(nil)
	if err != nil {
		return nil, fmt.Errorf("warm iteration: %w", err)
	}
	m.checksum = warm.checksum()
	fold := func(t *tally) {
		m.ops += t.ops
		m.failed += t.failed
		m.msgs = append(m.msgs, t.msgs...)
		m.check(t.checksum() == m.checksum, "sim_checksum %s differs from the warm iteration's %s", t.checksum(), m.checksum)
	}
	fold(warm)

	budget := e.seconds
	minIters := e.sc.MinIters
	if traced {
		budget, minIters = 0, e.sc.TracedIters
	}
	for start := time.Now(); len(m.iters) < minIters || time.Since(start) < budget; {
		it, err := runIteration(w, nil)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", len(m.iters), err)
		}
		fold(it.t)
		m.iters = append(m.iters, it)
	}
	if m.peakRSS, err = peakRSSMB(); err != nil {
		return nil, err
	}
	// The once-only checks come after the high-water mark is read: the
	// width-nproc space they run is not the load being measured.
	w.verify(warm, &m.checker)
	if !traced {
		return m, nil
	}

	m.layer = map[string]float64{}
	warm.counts(m.layer)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var tracedWall, pauses []float64
	var gcs uint32
	for i := 0; i < e.sc.TracedIters; i++ {
		it, err := runIteration(w, tr)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, fmt.Errorf("traced iteration %d: %w", i, err)
		}
		fold(it.t)
		tracedWall = append(tracedWall, it.wall.Seconds())
		pauses = append(pauses, float64(it.gcPause)/float64(time.Millisecond))
		gcs = it.gcs
	}
	pprof.StopCPUProfile()
	if m.shares, err = attribute(prof.Bytes()); err != nil {
		return nil, err
	}
	var base []float64
	for _, it := range m.iters {
		base = append(base, it.wall.Seconds())
	}
	m.layer["bench.trace_overhead_pct"] = 100 * (median(tracedWall)/median(base) - 1)
	m.layer["runtime.num_gc"] = float64(gcs)
	m.layer["runtime.gc_pause_ms"] = median(pauses)
	if run, _ := tr.total("machine.run"); warm.instrs > 0 {
		m.layer["machine.run_ns_per_instr"] = float64(run) / float64(e.sc.TracedIters) / float64(warm.instrs)
	}
	if err := w.layers(tr, m.layer); err != nil {
		return nil, fmt.Errorf("per-layer pass: %w", err)
	}
	m.layer["machine.new_ms"] = tr.mean("machine.new", time.Millisecond)
	m.layer["machine.warmup_ms"] = tr.mean("machine.warmup", time.Millisecond)
	m.layer["machine.snapshot_us"] = tr.mean("machine.snapshot", time.Microsecond)
	if err := microDrivers(e, m.layer); err != nil {
		return nil, fmt.Errorf("micro-drivers: %w", err)
	}
	m.spans = tr.rows()
	return m, nil
}
