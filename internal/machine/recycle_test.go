package machine

import (
	"reflect"
	"sync"
	"testing"

	"varsim/internal/config"
	"varsim/internal/digest"
	"varsim/internal/fleet"
	"varsim/internal/metrics"
)

// branchReadings is everything a branch shows: its Result, its digest
// chain, the registry's readings at the end and the sampled series.
type branchReadings struct {
	res    Result
	chain  []digest.Vector
	reg    metrics.Snapshot
	series metrics.TimeSeries
}

// TestSnapshotOverAnyShape: whatever spent was — another workload, CPU
// count, L2 geometry or processor kind — SnapshotOver must return the
// fresh Snapshot, down to the registry's readings and the sampled
// series, reusing what fits and rebuilding the rest. Two goroutines walk
// a chain of shapes over one pool, as the adaptive arms of different
// configurations do, and each generation is held to a fresh Snapshot of
// its base under the same seed, and every base must still branch as it
// did before the chain.
func TestSnapshotOverAnyShape(t *testing.T) {
	const interval = 20_000
	type shape struct {
		wl      string
		cpus    int
		l2Assoc int // 0: the default
		proc    config.ProcessorKind
		sampled bool  // the base samples, so the snapshot clones its sampler
		txns    int64 // the window; 0 runs windowNS of simulated time instead
	}
	const windowNS = 150_000
	shapes := []shape{
		{"oltp", 4, 0, config.SimpleProc, false, 12},
		{"specjbb", 4, 0, config.OOOProc, true, 40},
		{"barnes", 2, 0, config.SimpleProc, false, 0},
		{"oltp", 2, 0, config.OOOProc, false, 12},
		{"oltp", 4, 2, config.SimpleProc, true, 12},
		{"specjbb", 8, 0, config.SimpleProc, false, 40},
	}
	bases := make([]*Machine, len(shapes))
	for i, s := range shapes {
		cfg := config.Default()
		cfg.NumCPUs, cfg.Processor = s.cpus, s.proc
		if s.l2Assoc > 0 {
			cfg.L2.Assoc = s.l2Assoc
		}
		m := mustMachine(t, cfg, s.wl, 3, 1)
		if s.sampled {
			m.EnableSampling(interval)
		}
		if _, err := m.RunNS(100_000); err != nil {
			t.Fatal(err)
		}
		m.Freeze()
		bases[i] = m
	}
	run := func(m *Machine, s shape, seed uint64) (branchReadings, error) {
		m.SetPerturbSeed(seed)
		m.EnableSampling(interval)
		m.EnableDigests(interval)
		var (
			r   branchReadings
			err error
		)
		if s.txns > 0 {
			r.res, err = m.Run(s.txns)
		} else {
			r.res, err = m.RunNS(windowNS)
		}
		for _, smp := range m.DigestSeries().Samples {
			r.chain = append(r.chain, smp.Chain)
		}
		r.reg, r.series = m.Metrics().Snapshot(), m.MetricSeries()
		return r, err
	}

	// What a branch of each base gives before the chain: SnapshotOver
	// must never write the checkpoint, e.g. through a plan a spent
	// machine still shared with it.
	pristine := make([]branchReadings, len(bases))
	for k, base := range bases {
		var err error
		if pristine[k], err = run(base.Snapshot(), shapes[k], 0xBA5E); err != nil {
			t.Fatal(err)
		}
	}

	var (
		pool fleet.Pool[*Machine]
		wg   sync.WaitGroup
	)
	const workers, generations = 2, 12
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gen := 0; gen < generations; gen++ {
				// Two generations a shape, so a spent machine of the same
				// shape is on hand about as often as one of another.
				k := (gen/2 + 3*w) % len(shapes)
				s, base, seed := shapes[k], bases[k], uint64(100*w+gen+1)
				want, err := run(base.Snapshot(), s, seed)
				if err != nil {
					errs[w] = err
					return
				}
				m := base.SnapshotOver(pool.Get())
				got, err := run(m, s, seed)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(got.res, want.res) || !reflect.DeepEqual(got.chain, want.chain) {
					t.Errorf("worker %d generation %d (%+v): recycled branch diverged\ngot  %+v\nwant %+v", w, gen, s, got.res, want.res)
				}
				if !reflect.DeepEqual(got.reg, want.reg) {
					t.Errorf("worker %d generation %d (%+v): registry readings differ from a fresh snapshot's", w, gen, s)
				}
				if got.series.Len() == 0 || !reflect.DeepEqual(got.series, want.series) {
					t.Errorf("worker %d generation %d (%+v): sampled series differ (recycled %d samples, fresh %d)", w, gen, s, got.series.Len(), want.series.Len())
				}
				pool.Put(m)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for k, base := range bases {
		if got, err := run(base.Snapshot(), shapes[k], 0xBA5E); err != nil || !reflect.DeepEqual(got, pristine[k]) {
			t.Fatalf("base %d (%+v): a branch differs after the chain (%v): SnapshotOver wrote the checkpoint", k, shapes[k], err)
		}
	}
}

// resultInstruments names the registry instrument each Result counter is
// the window's delta of; nil marks the fields that are not counters.
var resultInstruments = map[string]func(Result) (string, uint64){
	"Workload":        nil,
	"ElapsedNS":       nil,
	"CPT":             nil,
	"Txns":            func(r Result) (string, uint64) { return "machine.txns", uint64(r.Txns) },
	"Instrs":          func(r Result) (string, uint64) { return "machine.instrs", uint64(r.Instrs) },
	"L1DMisses":       func(r Result) (string, uint64) { return "mem.l1d.misses", r.L1DMisses },
	"L1IMisses":       func(r Result) (string, uint64) { return "mem.l1i.misses", r.L1IMisses },
	"L2Misses":        func(r Result) (string, uint64) { return "mem.l2.misses", r.L2Misses },
	"BusRequests":     func(r Result) (string, uint64) { return "bus.requests", r.BusRequests },
	"CacheToCache":    func(r Result) (string, uint64) { return "snoop.cache_to_cache", r.CacheToCache },
	"MemFetches":      func(r Result) (string, uint64) { return "snoop.mem_fetches", r.MemFetches },
	"Writebacks":      func(r Result) (string, uint64) { return "snoop.writebacks", r.Writebacks },
	"CtxSwitches":     func(r Result) (string, uint64) { return "os.ctx_switches", r.CtxSwitches },
	"Preempts":        func(r Result) (string, uint64) { return "os.preempts", r.Preempts },
	"Steals":          func(r Result) (string, uint64) { return "os.steals", r.Steals },
	"LockContentions": func(r Result) (string, uint64) { return "os.lock_contentions", r.LockContentions },
	"Events":          func(r Result) (string, uint64) { return "machine.events", r.Events },
}

// TestResultIsTheRegistryDelta pins a Result to the instruments /metrics,
// the series CSV and Perfetto read: every counter of it must equal the
// delta of its instrument between two registry snapshots taken around
// the same Run, on a fresh snapshot and on one built over a spent
// machine of its shape, on both cores.
// The field list is checked against Result, so a counter added there
// without a line here fails.
func TestResultIsTheRegistryDelta(t *testing.T) {
	typ := reflect.TypeOf(Result{})
	if typ.NumField() != len(resultInstruments) {
		t.Fatalf("Result has %d fields, this test knows %d", typ.NumField(), len(resultInstruments))
	}
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := resultInstruments[typ.Field(i).Name]; !ok {
			t.Fatalf("Result.%s is not covered by this test", typ.Field(i).Name)
		}
	}
	for _, tc := range []struct {
		wl   string
		proc config.ProcessorKind
		txns int64
	}{{"oltp", config.SimpleProc, 15}, {"specjbb", config.OOOProc, 60}} {
		t.Run(tc.wl, func(t *testing.T) {
			cfg := testConfig()
			cfg.Processor = tc.proc
			base := mustMachine(t, cfg, tc.wl, 1, 1)
			if _, err := base.Run(30); err != nil {
				t.Fatal(err)
			}
			spent := base.Snapshot()
			if _, err := spent.Run(tc.txns); err != nil {
				t.Fatal(err)
			}
			recycled := base.SnapshotOver(spent)
			for _, c := range []struct {
				name string
				m    *Machine
			}{{"fresh", base.Snapshot()}, {"recycled", recycled}} {
				m := c.m
				start := m.Metrics().Snapshot()
				res, err := m.Run(tc.txns)
				if err != nil {
					t.Fatal(err)
				}
				end := m.Metrics().Snapshot()
				for field, counter := range resultInstruments {
					if counter == nil {
						continue
					}
					name, got := counter(res)
					if want := uint64(end.Delta(start, name)); got != want {
						t.Errorf("%s: Result.%s = %d, registry delta of %s = %d", c.name, field, got, name, want)
					}
				}
			}
		})
	}
}
