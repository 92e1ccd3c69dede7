// Package metrics provides the simulator's unified instrumentation
// substrate: a typed registry of named counters, gauges and fixed-bucket
// histograms that every modelled component (caches, snooper, DRAM,
// branch predictors, the OS model, the machine itself) registers into,
// plus an interval sampler that snapshots the registry at a fixed
// simulated-time cadence into an exportable time series.
//
// Design constraints, inherited from the simulation kernel:
//
//   - Determinism: instruments are plain data read synchronously on the
//     simulation thread; sampling never perturbs simulated behaviour.
//   - Checkpointability: a registry is rebuilt (re-wired) against a
//     cloned machine, or carried to one built in the storage its machine
//     left, and sampled series are plain data that deep-copy with machine
//     snapshots.
//   - Zero hot-path cost when idle: components keep incrementing their
//     own plain fields; func-instruments read them lazily, so the only
//     cost of an enabled registry is paid at snapshot time.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Kind classifies an instrument.
type Kind uint8

const (
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level that can move both ways.
	KindGauge
	// KindHistogram is a fixed-bucket distribution of observations.
	KindHistogram
	numKinds
)

func (k Kind) String() string {
	names := [...]string{"counter", "gauge", "histogram"}
	if int(k) < len(names) {
		return names[k]
	}
	return "invalid"
}

// Instrument is one named metric. Value returns the instrument's scalar
// reading: cumulative count for counters, level for gauges, observation
// count for histograms.
type Instrument interface {
	Name() string
	Kind() Kind
	Value() float64
}

// Counter is a registry-owned cumulative counter.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Count returns the cumulative count.
func (c *Counter) Count() uint64 { return c.v }

// Name implements Instrument.
func (c *Counter) Name() string { return c.name }

// Kind implements Instrument.
func (c *Counter) Kind() Kind { return KindCounter }

// Value implements Instrument.
func (c *Counter) Value() float64 { return float64(c.v) }

// Gauge is a registry-owned instantaneous level.
type Gauge struct {
	name string
	v    float64
}

// Set stores the current level.
func (g *Gauge) Set(v float64) { g.v = v }

// Name implements Instrument.
func (g *Gauge) Name() string { return g.name }

// Kind implements Instrument.
func (g *Gauge) Kind() Kind { return KindGauge }

// Value implements Instrument.
func (g *Gauge) Value() float64 { return g.v }

// counterFunc reads a cumulative count from component state on demand.
type counterFunc struct {
	name string
	fn   func() uint64
}

func (c *counterFunc) Name() string   { return c.name }
func (c *counterFunc) Kind() Kind     { return KindCounter }
func (c *counterFunc) Value() float64 { return float64(c.fn()) }

// gaugeFunc reads an instantaneous level from component state on demand.
type gaugeFunc struct {
	name string
	fn   func() float64
}

func (g *gaugeFunc) Name() string   { return g.name }
func (g *gaugeFunc) Kind() Kind     { return KindGauge }
func (g *gaugeFunc) Value() float64 { return g.fn() }

// Histogram is a fixed-bucket distribution. An observation lands in the
// first bucket whose upper bound is >= the value; values above the last
// bound land in the implicit overflow bucket.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1, last is overflow
	sum    float64
	count  uint64
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

// Counts returns the per-bucket counts (last entry is the overflow
// bucket).
func (h *Histogram) Counts() []uint64 { return h.counts }

// AddFrom accumulates another histogram's observations into h. The two
// histograms must share bucket bounds; used when a machine snapshot
// re-wires a fresh registry and restores the original's instrument
// state into it.
func (h *Histogram) AddFrom(o *Histogram) {
	for i, c := range o.counts {
		if i < len(h.counts) {
			h.counts[i] += c
		}
	}
	h.sum += o.sum
	h.count += o.count
}

// Reset clears every observation, leaving the bounds; a machine snapshot
// that carries a registry over resets its histograms before restoring
// the original's state into them with AddFrom.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.sum, h.count = 0, 0
}

// Name implements Instrument.
func (h *Histogram) Name() string { return h.name }

// Kind implements Instrument.
func (h *Histogram) Kind() Kind { return KindHistogram }

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

// NewCounter registers and returns an owned counter.
func (r *Registry) NewCounter(name string) *Counter {
	c := &Counter{name: name}
	r.Register(c)
	return c
}

// NewGauge registers and returns an owned gauge.
func (r *Registry) NewGauge(name string) *Gauge {
	g := &Gauge{name: name}
	r.Register(g)
	return g
}

// NewHistogram registers and returns a histogram with the given
// ascending bucket upper bounds.
func (r *Registry) NewHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must ascend")
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.Register(h)
	return h
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
// wiring a machine; every later Names/Each/Snapshot call hits the
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

// Len returns the number of registered instruments.
func (r *Registry) Len() int { return len(r.byName) }

// Each calls fn for every instrument in sorted name order.
func (r *Registry) Each(fn func(Instrument)) {
	r.ensureSorted()
	for _, inst := range r.insts {
		fn(inst)
	}
}

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

// MarshalJSON encodes the snapshot with sorted keys, writing non-finite
// values as the strings "NaN", "+Inf" and "-Inf": encoding/json rejects
// those floats outright, but derived ratio instruments legitimately
// produce them (0/0 utilization, unbounded latency), and dropping a
// whole series export over one sample is worse than a typed string.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	names := s.Names()
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		b.Write(kb)
		b.WriteByte(':')
		v := s[k]
		switch {
		case math.IsNaN(v):
			b.WriteString(`"NaN"`)
		case math.IsInf(v, 1):
			b.WriteString(`"+Inf"`)
		case math.IsInf(v, -1):
			b.WriteString(`"-Inf"`)
		default:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON accepts both plain numbers and the non-finite string
// forms MarshalJSON writes.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	out := make(Snapshot, len(raw))
	for k, v := range raw {
		switch t := v.(type) {
		case json.Number:
			f, err := t.Float64()
			if err != nil {
				return err
			}
			out[k] = f
		case string:
			f, err := strconv.ParseFloat(t, 64)
			if err != nil {
				return fmt.Errorf("metrics: snapshot value %q for %q: %w", t, k, err)
			}
			out[k] = f
		default:
			return fmt.Errorf("metrics: snapshot value for %q is %T, want number or string", k, v)
		}
	}
	*s = out
	return nil
}
