package machine

import (
	"varsim/internal/metrics"
	"varsim/internal/sim"
)

// seriesNames are the interval series' columns, sorted: each names one
// counters field, in the order row writes them.
var seriesNames = []string{
	"bus.requests",
	"machine.events",
	"machine.instrs",
	"machine.txns",
	"mem.l1d.misses",
	"mem.l1i.misses",
	"mem.l2.accesses",
	"mem.l2.misses",
	"os.ctx_switches",
	"os.lock_acquisitions",
	"os.lock_contentions",
	"os.preempts",
	"os.steals",
	"snoop.cache_to_cache",
	"snoop.mem_fetches",
	"snoop.writebacks",
}

// row is c as one series row, a value per seriesNames column.
func (c *counters) row() []float64 {
	return []float64{
		float64(c.busRequests),
		float64(c.events),
		float64(c.instrs),
		float64(c.txns),
		float64(c.l1dMisses),
		float64(c.l1iMisses),
		float64(c.l2Accesses),
		float64(c.l2Misses),
		float64(c.ctxSwitches),
		float64(c.lockAcquisitions),
		float64(c.lockContentions),
		float64(c.preempts),
		float64(c.steals),
		float64(c.cacheToCache),
		float64(c.memFetches),
		float64(c.writebacks),
	}
}

// EnableSampling starts interval sampling: every intervalNS of
// simulated time a KindDrain event appends the machine's counters to
// an in-memory time series (per-interval IPC, miss rates, bus traffic
// and lock contention derive from it — the per-interval form of the
// paper's time-variability figures, which varsim -interval-us prints
// and exports as CSV when the run ends). Sampling is observation-only:
// it reads component state and never mutates it, so the simulated
// trajectory is unchanged (only the delivered-event count includes the
// drain ticks). Calling it again is a no-op.
func (m *Machine) EnableSampling(intervalNS int64) {
	if m.series != nil {
		return
	}
	if intervalNS <= 0 {
		panic("machine: sampling interval must be positive")
	}
	if m.digestRec != nil && m.digestRec.IntervalNS() != intervalNS {
		panic("machine: sampling interval must match the digest interval (both ride one KindDrain stream)")
	}
	c := m.counters()
	m.series = &metrics.TimeSeries{IntervalNS: intervalNS, BaseTimeNS: m.eng.Now(), Names: seriesNames, Base: c.row()}
	if m.digestRec == nil { // else digests already scheduled the drain ticks
		m.eng.Schedule(intervalNS, sim.KindDrain, 0, 0)
	}
}

// MetricSeries returns the sampled time series (empty unless
// EnableSampling was called).
func (m *Machine) MetricSeries() metrics.TimeSeries {
	if m.series == nil {
		return metrics.TimeSeries{}
	}
	return *m.series
}

// handleDrain services a KindDrain tick: sample the counters and/or
// record a state digest, then re-arm the next tick while the workload
// is still running. Series and digest recorder share one drain stream
// (EnableSampling/EnableDigests enforce equal intervals), so enabling
// both costs one event per interval, not two.
func (m *Machine) handleDrain() {
	var intervalNS int64
	if m.series != nil {
		c := m.counters()
		m.series.Samples = append(m.series.Samples, metrics.Sample{TimeNS: m.eng.Now(), Values: c.row()})
		intervalNS = m.series.IntervalNS
	}
	if m.digestRec != nil {
		m.recordDigest()
		intervalNS = m.digestRec.IntervalNS()
	}
	if intervalNS > 0 && !m.os.AllDone() {
		m.eng.Schedule(intervalNS, sim.KindDrain, 0, 0)
	}
}
