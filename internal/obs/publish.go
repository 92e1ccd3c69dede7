// Package obs is the live observability layer: a thread-safe bridge
// (Publisher, Fleet) the single-threaded simulation publishes into, and
// an HTTP server exposing what was published — Prometheus text
// exposition on /metrics, fleet progress on /status, the sampled metric
// time series on /series, net/http/pprof, and an embedded dashboard
// that charts the series live during a sweep.
//
// The simulator itself stays observation-free: nothing here is reached
// unless a CLI passes -http, and publishing costs one mutex and one
// map copy per interval sample.
package obs

import (
	"sync"
	"time"

	"varsim/internal/machine"
	"varsim/internal/metrics"
)

// Publisher bridges the simulation goroutine and HTTP handlers: the
// simulation side publishes registry snapshots and interval samples
// under a mutex; handlers read consistent copies. A nil *Publisher is
// safe: every method no-ops or returns zero values.
type Publisher struct {
	mu         sync.RWMutex
	kinds      map[string]metrics.Kind
	names      []string
	snap       metrics.Snapshot
	intervalNS int64
	baseTimeNS int64
	base       metrics.Snapshot
	samples    []metrics.Sample
	updated    time.Time
}

// NewPublisher returns an empty publisher.
func NewPublisher() *Publisher { return &Publisher{} }

// PublishRegistry captures reg's instrument names, kinds and current
// values. Call it from the simulation goroutine (a registry is not safe
// for concurrent reads while the simulation mutates component state) —
// typically once before a run starts and once after it ends.
func (p *Publisher) PublishRegistry(reg *metrics.Registry) {
	if p == nil || reg == nil {
		return
	}
	kinds := make(map[string]metrics.Kind, reg.Len())
	reg.Each(func(inst metrics.Instrument) { kinds[inst.Name()] = inst.Kind() })
	names := append([]string(nil), reg.Names()...)
	snap := reg.Snapshot()
	p.mu.Lock()
	p.kinds = kinds
	p.names = names
	p.snap = snap
	p.updated = time.Now()
	p.mu.Unlock()
}

// SetSeriesBase declares the cadence and baseline of upcoming
// PublishSample calls, mirroring a machine sampler's Rebase.
func (p *Publisher) SetSeriesBase(intervalNS, baseTimeNS int64, base metrics.Snapshot) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.intervalNS = intervalNS
	p.baseTimeNS = baseTimeNS
	p.base = base
	p.samples = nil
	p.mu.Unlock()
}

// PublishSample appends one interval sample and makes it the latest
// snapshot. The caller must hand over ownership of snap (the machine
// sample hook passes freshly built snapshot maps, never mutated again).
func (p *Publisher) PublishSample(nowNS int64, snap metrics.Snapshot) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap = snap
	p.samples = append(p.samples, metrics.Sample{TimeNS: nowNS, Values: snap})
	p.updated = time.Now()
	p.mu.Unlock()
}

// Hook returns a Machine.SetSampleHook-compatible function bound to p.
func (p *Publisher) Hook() func(nowNS int64, snap metrics.Snapshot) {
	return func(nowNS int64, snap metrics.Snapshot) { p.PublishSample(nowNS, snap) }
}

// Snapshot returns the latest published values and the instrument kinds
// (kinds may be nil when no registry was published).
func (p *Publisher) Snapshot() (metrics.Snapshot, map[string]metrics.Kind) {
	if p == nil {
		return nil, nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	snap := make(metrics.Snapshot, len(p.snap))
	for k, v := range p.snap {
		snap[k] = v
	}
	return snap, p.kinds
}

// Series assembles everything published so far into a TimeSeries.
// Sample value maps are shared with the publisher (they are written
// once and never mutated); the slice and name list are copies.
func (p *Publisher) Series() metrics.TimeSeries {
	if p == nil {
		return metrics.TimeSeries{}
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	names := p.names
	if names == nil && len(p.samples) > 0 {
		names = p.samples[0].Values.Names()
	}
	return metrics.TimeSeries{
		IntervalNS: p.intervalNS,
		BaseTimeNS: p.baseTimeNS,
		Names:      append([]string(nil), names...),
		Base:       p.base,
		Samples:    append([]metrics.Sample(nil), p.samples...),
	}
}

// StartSimRateSampler publishes the process-wide simulated-cycle
// counter (machine.SimulatedCycles) into pub every period of wall clock
// as instrument "sim.cycles" on a wall-clock nanosecond time base — the
// sweep-wide live series when no machine-level sampler is running
// (cmd/experiments runs many short-lived machines; this tracks the
// whole fleet's throughput instead). Returns a stop function
// (idempotent).
func StartSimRateSampler(pub *Publisher, period time.Duration) func() {
	if pub == nil || period <= 0 {
		return func() {}
	}
	start := time.Now()
	pub.SetSeriesBase(int64(period), 0, metrics.Snapshot{"sim.cycles": float64(machine.SimulatedCycles())})
	stop := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				pub.PublishSample(now.Sub(start).Nanoseconds(),
					metrics.Snapshot{"sim.cycles": float64(machine.SimulatedCycles())})
			}
		}
	}()
	return func() { once.Do(func() { close(stop) }) }
}
