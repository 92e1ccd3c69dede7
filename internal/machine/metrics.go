package machine

import (
	"varsim/internal/bpred"
	"varsim/internal/metrics"
	"varsim/internal/sim"
)

// busDelayBounds are the bus queueing-delay histogram bucket upper
// bounds (ns): sub-occupancy waits up to pathological convoys.
var busDelayBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000}

// view is the machine the registry's machine-level instruments read
// (machine.*, bus.*, ooo.*): they read through it rather than closing
// over one *Machine, so that SnapshotOver can carry a registry to the
// snapshot built in its machine's storage by re-pointing view.m. The
// components register instruments over themselves, and a carried
// registry reads them because the snapshot reuses the same objects.
type view struct{ m *Machine }

// wireMetrics builds the machine's metric registry over its live
// components: every modelled subsystem registers its named instruments.
// Called at construction, and by SnapshotOver when it cannot carry
// spent's registry, because a clone's instruments must read the clone's
// state, not the original's.
func (m *Machine) wireMetrics() {
	v := &view{m: m}
	reg := metrics.NewRegistry()
	reg.CounterFunc("machine.instrs", func() uint64 { return uint64(v.m.instrs) })
	reg.CounterFunc("machine.txns", func() uint64 { return uint64(v.m.txnsDone) })
	reg.CounterFunc("machine.events", func() uint64 { return v.m.eng.Steps() })
	reg.CounterFunc("bus.requests", func() uint64 { return v.m.bus.reqs })
	reg.GaugeFunc("bus.queue_len", func() float64 { return float64(len(v.m.bus.q)) })
	m.busDelay = reg.NewHistogram("bus.queue_delay_ns", busDelayBounds)
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
			for i := range v.m.cpus {
				if c := v.m.cpus[i].ooo; c != nil {
					n += c.ROBStalls
				}
			}
			return
		})
		reg.CounterFunc("ooo.mshr_stalls", func() (n uint64) {
			for i := range v.m.cpus {
				if c := v.m.cpus[i].ooo; c != nil {
					n += c.MSHRStalls
				}
			}
			return
		})
		reg.CounterFunc("ooo.mispredict_stalls", func() (n uint64) {
			for i := range v.m.cpus {
				if c := v.m.cpus[i].ooo; c != nil {
					n += c.MispredictStalls
				}
			}
			return
		})
	}
	m.reg, m.view = reg, v
}

// Metrics returns the machine's metric registry. Every machine has one:
// the components register named instruments at construction. A Result's
// counts are read from the fields the instruments of the same names read
// (see counters), not from registry snapshots.
func (m *Machine) Metrics() *metrics.Registry { return m.reg }

// EnableSampling starts interval metric sampling: every intervalNS of
// simulated time a KindDrain event snapshots the registry into an
// in-memory time series (per-interval IPC, miss rates, bus utilization
// and the rest derive from it — the live-instrumentation form of the
// paper's time-variability figures). Sampling is observation-only: it
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
	m.sampler = metrics.NewSampler(m.reg, intervalNS)
	m.sampler.Rebase(m.eng.Now())
	if !armed {
		m.eng.Schedule(intervalNS, sim.KindDrain, 0, 0)
	}
}

// SetSampleHook registers fn to observe every interval sample (nil
// clears it). The hook runs on the simulation goroutine right after the
// sampler records the sample, receiving the sample's simulated time and
// the registry snapshot just taken; thread-safe observers (the obs
// Publisher) hang off it so a live HTTP server never has to touch the
// single-threaded machine. Snapshot propagates the hook to branched
// runs, and it costs nothing unless sampling is enabled.
func (m *Machine) SetSampleHook(fn func(nowNS int64, snap metrics.Snapshot)) { m.sampleHook = fn }

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
		smp := m.sampler.Tick(m.eng.Now())
		if m.sampleHook != nil {
			m.sampleHook(smp.TimeNS, smp.Values)
		}
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
