// Package metrics provides the simulator's unified instrumentation
// substrate: a registry of named counters, gauges and fixed-bucket
// histograms that every modelled component (caches, snooper, DRAM,
// branch predictors, the OS model, the machine itself) registers into,
// plus an interval sampler that snapshots the registry at a fixed
// simulated-time cadence into an exportable time series.
//
// Design constraints, inherited from the simulation kernel:
//
//   - Determinism: instruments are plain data read synchronously on the
//     simulation thread; sampling never perturbs simulated behaviour.
//   - Checkpointability: a registry is never copied. It is a view of
//     live component state that a machine builds over itself on first
//     read; a snapshot has none until something asks. State an
//     instrument owns (a Histogram) and sampled series are plain data
//     that copy with machine snapshots.
//   - Zero hot-path cost when idle: components keep incrementing their
//     own plain fields; func-instruments read them lazily, so the only
//     cost of an enabled registry is paid at snapshot time.
package metrics

import (
	"fmt"
	"sort"
)

// Instrument is one named metric. Value returns the instrument's scalar
// reading: cumulative count for counters, level for gauges, observation
// count for histograms.
type Instrument interface {
	Name() string
	Value() float64
}

// counterFunc reads a cumulative count from component state on demand.
type counterFunc struct {
	name string
	fn   func() uint64
}

func (c *counterFunc) Name() string   { return c.name }
func (c *counterFunc) Value() float64 { return float64(c.fn()) }

// gaugeFunc reads an instantaneous level from component state on demand.
type gaugeFunc struct {
	name string
	fn   func() float64
}

func (g *gaugeFunc) Name() string   { return g.name }
func (g *gaugeFunc) Value() float64 { return g.fn() }

// Histogram is a fixed-bucket distribution. An observation lands in the
// first bucket whose upper bound is >= the value; values above the last
// bound land in the implicit overflow bucket. Unlike the func
// instruments it holds its own state, so its owner makes it, copies it
// with its snapshots and registers it into a registry when one is built.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; never written after NewHistogram
	counts []uint64  // len(bounds)+1, last is overflow
	sum    float64
	count  uint64
}

// NewHistogram returns an empty histogram with the given ascending
// bucket upper bounds; Register adds it to a registry.
func NewHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must ascend")
	}
	return &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// CloneOver returns a copy of h built in the storage of spent, a
// histogram nothing reads any more (nil for none: the copy is new). The
// copy shares h's bounds and reuses spent's bucket array when it is
// large enough.
func (h *Histogram) CloneOver(spent *Histogram) *Histogram {
	if spent == nil {
		spent = new(Histogram)
	}
	*spent = Histogram{name: h.name, bounds: h.bounds, counts: append(spent.counts[:0], h.counts...), sum: h.sum, count: h.count}
	return spent
}

// Name implements Instrument.
func (h *Histogram) Name() string { return h.name }

// Value implements Instrument (observation count, so deltas give
// per-interval observation rates).
func (h *Histogram) Value() float64 { return float64(h.count) }

// Registry is a set of uniquely named instruments. It is not safe for
// concurrent use: the simulator is single-threaded by design.
type Registry struct {
	byName map[string]Instrument
	names  []string     // sorted; re-sorted lazily after registration
	insts  []Instrument // aligned with names; rebuilt with it
	sorted bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Instrument{}}
}

// Register adds an instrument. Registering a duplicate or empty name
// panics: instrument names are compile-time wiring, not runtime input.
func (r *Registry) Register(inst Instrument) {
	name := inst.Name()
	if name == "" {
		panic("metrics: empty instrument name")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate instrument %q", name))
	}
	r.byName[name] = inst
	r.names = append(r.names, name)
	r.sorted = false
}

// CounterFunc registers a counter read from component state on demand.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.Register(&counterFunc{name: name, fn: fn})
}

// GaugeFunc registers a gauge read from component state on demand.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.Register(&gaugeFunc{name: name, fn: fn})
}

// ensureSorted re-sorts the name list and rebuilds the aligned
// instrument list after registrations. Registration happens only while
// wiring a machine; every later Names/Snapshot call hits the
// cached slices.
func (r *Registry) ensureSorted() {
	if r.sorted {
		return
	}
	sort.Strings(r.names)
	if cap(r.insts) < len(r.names) {
		r.insts = make([]Instrument, len(r.names))
	}
	r.insts = r.insts[:len(r.names)]
	for i, name := range r.names {
		r.insts[i] = r.byName[name]
	}
	r.sorted = true
}

// Names returns all instrument names in sorted order.
func (r *Registry) Names() []string {
	r.ensureSorted()
	return r.names
}

// Get returns the named instrument, or nil.
func (r *Registry) Get(name string) Instrument { return r.byName[name] }

// Snapshot captures every instrument's current Value keyed by name.
// Instruments are read in sorted-name order: the snapshot itself is a
// map, but func-instruments may lazily fold component state, so even
// the read order stays a function of (config, seed) only. The read
// walks the cached name-aligned instrument list, not the map.
func (r *Registry) Snapshot() Snapshot {
	r.ensureSorted()
	s := make(Snapshot, len(r.names))
	for i, name := range r.names {
		s[name] = r.insts[i].Value()
	}
	return s
}

// Snapshot is a point-in-time reading of a registry.
type Snapshot map[string]float64

// Names returns the snapshot's keys in sorted order. It is the audited
// sorted-key helper every consumer that serializes or iterates a
// snapshot must go through (see docs/DETERMINISM.md, maporder).
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	//varsim:allow maporder key collection only; sorted before return
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Delta returns s[name] - prev[name] (missing names read as 0).
func (s Snapshot) Delta(prev Snapshot, name string) float64 {
	return s[name] - prev[name]
}
