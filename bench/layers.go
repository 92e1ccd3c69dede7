package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"varsim/internal/bpred"
	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/dram"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/kernel"
	"varsim/internal/mem"
	"varsim/internal/rng"
	"varsim/internal/sampling"
	"varsim/internal/sim"
	"varsim/internal/stats"
	simworkload "varsim/internal/workload"
	"varsim/internal/workloads"
)

// allocBytes is the Go heap's cumulative allocation, read without
// stopping the world so it can sit between two spans.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// microSeed fixes the synthetic streams: a micro-driver times a layer's
// public function on the same inputs at every commit and every -seed.
const microSeed = 0x5EED

// rescheduler is the event handler of the sim micro-driver: every
// delivered event schedules its successor, holding the queue depth.
type rescheduler struct {
	eng *sim.Engine
	r   rng.Stream
}

func (h *rescheduler) HandleEvent(ev sim.Event) {
	h.eng.Schedule(1+h.r.Int63n(2000), sim.KindCPUStep, ev.Node, 0)
}

// microDrivers times each layer's public functions on fixed synthetic
// streams. Every driver runs MicroReps times over MicroOps operations
// and reports the median repeat, in nanoseconds per operation unless the
// metric's name says otherwise.
func microDrivers(e *env, m map[string]float64) error {
	ops := e.sc.MicroOps
	cfg := e.config()
	r := rng.New(microSeed)

	// perOp times f over n operations, MicroReps times.
	perOp := func(n int, f func()) float64 {
		var xs []float64
		for i := 0; i < e.sc.MicroReps; i++ {
			start := time.Now()
			f()
			xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
		}
		return median(xs)
	}

	{ // sim: Schedule + Step with one event per CPU and four more pending.
		h := &rescheduler{eng: sim.NewEngine(), r: rng.New(microSeed)}
		for i := 0; i < cfg.NumCPUs+4; i++ {
			h.eng.Schedule(int64(i), sim.KindCPUStep, int32(i%cfg.NumCPUs), 0)
		}
		m["sim.step_ns"] = perOp(ops, func() {
			for i := 0; i < ops; i++ {
				h.eng.Step(h)
			}
		})
	}

	{ // mem.Cache at the L2's geometry: hits, misses, evicting fills.
		lines := uint64(cfg.L2.SizeBytes >> cfg.L2.BlockBits)
		c := mem.NewCache(cfg.L2)
		for b := uint64(0); b < lines; b++ {
			c.Fill(b, mem.Shared)
		}
		stream := make([]uint64, ops)
		for i := range stream {
			stream[i] = uint64(r.Int63n(int64(lines)))
		}
		m["mem.probe_hit_ns"] = perOp(ops, func() {
			for _, b := range stream {
				c.Probe(b)
			}
		})
		m["mem.probe_miss_ns"] = perOp(ops, func() {
			for _, b := range stream {
				c.Probe(b + lines)
			}
		})
		next := lines
		m["mem.fill_ns"] = perOp(ops, func() {
			for range stream {
				c.Fill(next, mem.Modified)
				next++
			}
		})
		// A hit on a fresh clone of a frozen cache copies one page.
		c.Freeze()
		touches := ops / 100
		var first time.Duration
		for _, b := range stream[:touches] {
			cl := c.Clone()
			start := time.Now()
			cl.Probe(b + next - lines)
			first += time.Since(start)
		}
		m["mem.probe_first_touch_ns"] = float64(first.Nanoseconds()) / float64(touches)
	}

	{ // mem.Snooper over 8 nodes: read grants beside write grants on one
		// shared working set, in alternating bursts, so reads find
		// modified owners and writes find sharers to invalidate.
		nodes := make([]*mem.NodeCaches, cfg.NumCPUs)
		for i := range nodes {
			nodes[i] = mem.NewNodeCaches(cfg)
		}
		sn := mem.NewSnooper(nodes)
		const burst, shared = 64, 4096
		var reads, writes []float64
		for rep := 0; rep < e.sc.MicroReps; rep++ {
			var rd, wr time.Duration
			for done := 0; done < ops; done += 2 * burst {
				start := time.Now()
				for i := 0; i < burst; i++ {
					sn.Grant(r.Intn(cfg.NumCPUs), uint64(r.Intn(shared)), mem.GetX)
				}
				mid := time.Now()
				for i := 0; i < burst; i++ {
					sn.Grant(r.Intn(cfg.NumCPUs), uint64(r.Intn(shared)), mem.GetS)
				}
				wr += mid.Sub(start)
				rd += time.Since(mid)
			}
			reads = append(reads, float64(rd.Nanoseconds())/float64(ops/2))
			writes = append(writes, float64(wr.Nanoseconds())/float64(ops/2))
		}
		m["mem.grant_read_ns"] = median(reads)
		m["mem.grant_write_ns"] = median(writes)
	}

	{ // dram: one access per block at a steadily advancing clock.
		d := dram.NewControllers(cfg.NumCPUs, cfg.MemSupplyNS, cfg.DRAMBanksPerCtl)
		now := int64(0)
		m["dram.access_ns"] = perOp(ops, func() {
			for i := 0; i < ops; i++ {
				now += 20
				d.Access(uint64(r.Int63n(1<<20)), now)
			}
		})
	}

	{ // kernel: every CPU in turn gives up its thread, which Enqueue puts
		// back on a run queue eight deep, and PickNext dispatches the head.
		osm := kernel.New(cfg.NumCPUs, cfg.NumCPUs*cfg.ThreadsPerCPU, 1, 0, 0)
		for c := 0; c < cfg.NumCPUs; c++ {
			osm.PickNext(int32(c), 0)
		}
		m["kernel.pick_next_ns"] = perOp(ops, func() {
			for i := 0; i < ops; i++ {
				cpu := int32(i % cfg.NumCPUs)
				tid := osm.BlockCurrent(cpu, kernel.Ready)
				osm.Enqueue(tid)
				osm.PickNext(cpu, int64(i))
			}
		})
	}

	{ // bpred: conditional predictions, and the first one on a clone of
		// a frozen unit, which copies the shared tables.
		u := bpred.New(cfg.OOO)
		m["bpred.predict_cond_ns"] = perOp(ops, func() {
			for i := 0; i < ops; i++ {
				u.PredictCond(uint32(r.Intn(4096)), r.Bool(0.6))
			}
		})
		u.Freeze()
		touches := ops / 100
		var first time.Duration
		for i := 0; i < touches; i++ {
			cl := u.Clone()
			start := time.Now()
			cl.PredictCond(uint32(i), true)
			first += time.Since(start)
		}
		m["bpred.first_write_ns"] = float64(first.Nanoseconds()) / float64(touches)
	}

	// workload: the op generators, threads taken round-robin.
	next := func(name string, c config.Config) (float64, error) {
		wl, err := workloads.New(name, c, microSeed)
		if err != nil {
			return 0, err
		}
		threads := wl.NumThreads()
		done := make([]bool, threads)
		start := time.Now()
		n := 0
		for i := 0; n < ops && i < 2*ops; i++ {
			tid := i % threads
			if done[tid] {
				continue
			}
			if wl.Next(tid).Kind == simworkload.OpDone {
				done[tid] = true
			}
			n++
		}
		if n == 0 {
			return 0, fmt.Errorf("%s generated no ops", name)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	}
	var err error
	if m["workload.txn_next_ns"], err = next("oltp", cfg); err != nil {
		return err
	}
	ooo := cfg
	ooo.Processor = config.OOOProc
	if m["workload.sci_next_ns"], err = next("ocean", ooo); err != nil {
		return err
	}

	{ // fleet: dispatch and merge of jobs that do nothing.
		nothing := func(i int) (int, error) { return i, nil }
		for _, w := range []struct {
			metric  string
			workers int
		}{{"fleet.dispatch_ns_per_job", 1}, {"fleet.dispatch_ns_per_job_jN", e.nproc}} {
			var ferr error
			m[w.metric] = perOp(ops, func() {
				if _, err := fleet.Map(w.workers, ops, nothing); err != nil {
					ferr = err
				}
			})
			if ferr != nil {
				return ferr
			}
		}
	}

	// stats, sampling, core.Compare and the journal codec on samples of
	// twenty, the paper's run count.
	sample := func(mean float64) []float64 {
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = r.Norm(mean, 0.05*mean)
		}
		return xs
	}
	a, b, c := sample(1000), sample(1040), sample(1080)
	small := ops / 200 // these cost microseconds, not nanoseconds
	var serr error
	keep := func(err error) {
		if err != nil && serr == nil {
			serr = err
		}
	}
	m["stats.ci_ns"] = perOp(small, func() {
		for i := 0; i < small; i++ {
			_, err := stats.CI(a, 0.95)
			keep(err)
		}
	})
	m["stats.ttest_ns"] = perOp(small, func() {
		for i := 0; i < small; i++ {
			_, err := stats.WelchTTest(a, b)
			keep(err)
		}
	})
	m["stats.anova_ns"] = perOp(small, func() {
		for i := 0; i < small; i++ {
			_, err := stats.OneWayANOVA([][]float64{a, b, c})
			keep(err)
		}
	})
	m["stats.stream_add_ns"] = perOp(ops, func() {
		var s stats.Stream
		for i := 0; i < ops; i++ {
			keep(s.Add(a[i%len(a)]))
		}
	})
	target := e.sc.Target
	m["sampling.decide_ns"] = perOp(small, func() {
		for i := 0; i < small; i++ {
			sampling.Decide(a, 2, target)
		}
	})
	spA, spB := core.Space{Label: "a", Values: a}, core.Space{Label: "b", Values: b}
	m["core.compare_us"] = perOp(small, func() {
		for i := 0; i < small; i++ {
			_, err := core.Compare(spA, spB, 0.95)
			keep(err)
		}
	}) / 1000
	rec := journal.Record{
		Key:    journal.Key{Experiment: "4-way", ConfigHash: journal.ConfigHash(cfg), Seed: microSeed, Index: 7},
		Status: journal.StatusOK, Attempts: 1,
		Result: []byte(`{"Workload":"oltp","ElapsedNS":1200000,"Txns":100,"CPT":12000,"Instrs":560000,"Events":36000}`),
	}
	m["journal.encode_ns"] = perOp(small, func() {
		for i := 0; i < small; i++ {
			_, err := journal.Encode(rec)
			keep(err)
		}
	})
	return serr
}
