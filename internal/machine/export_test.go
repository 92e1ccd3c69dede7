package machine

import (
	"varsim/internal/mem"
	"varsim/internal/workload"
)

// WrapWorkload replaces the machine's workload instance with
// wrap(instance), through the assignment New and SnapshotOver use — so
// an external test can count a recipe-built machine's calls.
func (m *Machine) WrapWorkload(wrap func(workload.Instance) workload.Instance) {
	m.setWorkload(wrap(m.wl))
}

// BulkRuns reports whether the machine consumes compute runs through
// its workload's bulk form.
func (m *Machine) BulkRuns() bool { return m.runs != nil }

// componentCounts reads the component counters a Result and the
// interval series leave out — per-level cache hits, misses and
// evictions, the other coherence events, the memory controllers and
// disks, the predictors and stalls of the OOO cores, migrations and the
// scheduler's and bus's levels — so a test can hold two machines' whole
// counted state equal.
func componentCounts(m *Machine) map[string]uint64 {
	c := map[string]uint64{
		"snoop.upgrades":      m.snoop.Upgrades,
		"snoop.invalidations": m.snoop.Invals,
		"dram.accesses":       m.dram.Accesses,
		"dram.stall_ns":       uint64(m.dram.StallNS),
		"disk.requests":       m.disks.Requests,
		"disk.queue_ns":       uint64(m.disks.QueueNS),
		"os.done_threads":     uint64(m.os.DoneCount),
		"bus.queue_len":       uint64(len(m.bus.q)),
	}
	for _, n := range m.snoop.Nodes {
		for _, lvl := range []struct {
			name  string
			cache *mem.Cache
		}{{"mem.l1i", n.L1I}, {"mem.l1d", n.L1D}, {"mem.l2", n.L2}} {
			c[lvl.name+".hits"] += lvl.cache.Hits
			c[lvl.name+".misses"] += lvl.cache.Misses
			c[lvl.name+".evictions"] += lvl.cache.Evictions
		}
	}
	for i := range m.os.Threads {
		c["os.migrations"] += m.os.Threads[i].Migrations
	}
	for _, q := range m.os.RunQ {
		c["os.runnable"] += uint64(len(q))
	}
	for i := range m.cpus {
		core := m.cpus[i].ooo
		if core == nil {
			continue
		}
		u := core.bp
		c["bpred.cond_seen"] += u.CondSeen
		c["bpred.cond_miss"] += u.CondMiss
		c["bpred.ind_seen"] += u.IndSeen
		c["bpred.ind_miss"] += u.IndMiss
		c["bpred.ret_seen"] += u.RetSeen
		c["bpred.ret_miss"] += u.RetMiss
		c["bpred.ras_overflows"] += u.Overflows
		c["ooo.rob_stalls"] += core.ROBStalls
		c["ooo.mshr_stalls"] += core.MSHRStalls
		c["ooo.mispredict_stalls"] += core.MispredictStalls
	}
	return c
}
