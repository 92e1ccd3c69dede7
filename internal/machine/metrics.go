package machine

import (
	"varsim/internal/bpred"
	"varsim/internal/metrics"
	"varsim/internal/sim"
)

// busDelayBounds are the bus queueing-delay histogram bucket upper
// bounds (ns): sub-occupancy waits up to pathological convoys.
var busDelayBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000}

// wireMetrics builds the machine's metric registry over its live
// components: every modelled subsystem registers its named instruments,
// each a closure over state the machine owns for its whole life, and the
// bus queue-delay histogram the machine keeps is registered as it is.
// Only Metrics calls it, once per machine.
func (m *Machine) wireMetrics() {
	reg := metrics.NewRegistry()
	reg.CounterFunc("machine.instrs", func() uint64 { return uint64(m.instrs) })
	reg.CounterFunc("machine.txns", func() uint64 { return uint64(m.txnsDone) })
	reg.CounterFunc("machine.events", func() uint64 { return m.eng.Steps() })
	reg.CounterFunc("bus.requests", func() uint64 { return m.bus.reqs })
	reg.GaugeFunc("bus.queue_len", func() float64 { return float64(len(m.bus.q)) })
	reg.Register(m.busDelay)
	m.snoop.RegisterMetrics(reg)
	m.dram.RegisterMetrics(reg)
	m.disks.RegisterMetrics(reg)
	m.os.RegisterMetrics(reg)
	var units []*bpred.Unit
	for i := range m.cpus {
		if m.cpus[i].ooo != nil {
			units = append(units, m.cpus[i].ooo.bp)
		}
	}
	if len(units) > 0 {
		bpred.RegisterMetrics(reg, units)
		reg.CounterFunc("ooo.rob_stalls", func() (n uint64) {
			for i := range m.cpus {
				if c := m.cpus[i].ooo; c != nil {
					n += c.ROBStalls
				}
			}
			return
		})
		reg.CounterFunc("ooo.mshr_stalls", func() (n uint64) {
			for i := range m.cpus {
				if c := m.cpus[i].ooo; c != nil {
					n += c.MSHRStalls
				}
			}
			return
		})
		reg.CounterFunc("ooo.mispredict_stalls", func() (n uint64) {
			for i := range m.cpus {
				if c := m.cpus[i].ooo; c != nil {
					n += c.MispredictStalls
				}
			}
			return
		})
	}
	m.reg = reg
}

// Metrics returns the machine's metric registry, a view of its live
// state built by the first call: New wires none and a snapshot copies
// none, so a machine nothing samples never pays for one. A Result's
// counts are read from the fields the instruments of the same names
// read (see counters), not from registry snapshots. Building the registry writes the machine: do not call it
// on a base other goroutines are snapshotting.
func (m *Machine) Metrics() *metrics.Registry {
	if m.reg == nil {
		m.wireMetrics()
	}
	return m.reg
}

// EnableSampling starts interval metric sampling: every intervalNS of
// simulated time a KindDrain event snapshots the registry into an
// in-memory time series (per-interval IPC, miss rates, bus utilization
// and the rest derive from it — the per-interval form of the paper's
// time-variability figures, which varsim -interval-us prints and
// exports as CSV when the run ends). Sampling is observation-only: it
// reads component state and never mutates it, so the simulated
// trajectory is unchanged (only the delivered-event count includes the
// drain ticks). Calling it again is a no-op.
func (m *Machine) EnableSampling(intervalNS int64) {
	if m.sampler != nil {
		return
	}
	if m.digestRec != nil && m.digestRec.IntervalNS() != intervalNS {
		panic("machine: sampling interval must match the digest interval (both ride one KindDrain stream)")
	}
	armed := m.digestRec != nil // digests already scheduled the drain ticks
	m.sampler = metrics.NewSampler(m.Metrics(), intervalNS)
	m.sampler.Rebase(m.eng.Now())
	if !armed {
		m.eng.Schedule(intervalNS, sim.KindDrain, 0, 0)
	}
}

// MetricSeries returns the sampled time series (empty unless
// EnableSampling was called).
func (m *Machine) MetricSeries() metrics.TimeSeries {
	if m.sampler == nil {
		return metrics.TimeSeries{}
	}
	return m.sampler.Series()
}

// handleDrain services a KindDrain tick: snapshot the registry and/or
// record a state digest, then re-arm the next tick while the workload
// is still running. Sampler and digest recorder share one drain stream
// (EnableSampling/EnableDigests enforce equal intervals), so enabling
// both costs one event per interval, not two.
func (m *Machine) handleDrain() {
	var intervalNS int64
	if m.sampler != nil {
		m.sampler.Tick(m.eng.Now())
		intervalNS = m.sampler.IntervalNS
	}
	if m.digestRec != nil {
		m.recordDigest()
		intervalNS = m.digestRec.IntervalNS()
	}
	if intervalNS > 0 && !m.os.AllDone() {
		m.eng.Schedule(intervalNS, sim.KindDrain, 0, 0)
	}
}
