package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Sample is one interval snapshot: the simulated time it was taken and
// the cumulative instrument readings at that moment.
type Sample struct {
	TimeNS int64
	Values Snapshot
}

// Sampler snapshots a registry at a fixed simulated-time cadence. The
// machine drives it from KindDrain events; the sampler itself holds no
// scheduling state, so it clones trivially.
type Sampler struct {
	reg        *Registry
	IntervalNS int64
	baseTimeNS int64
	base       Snapshot
	samples    []Sample
}

// NewSampler builds a sampler over reg ticking every intervalNS
// simulated nanoseconds.
func NewSampler(reg *Registry, intervalNS int64) *Sampler {
	if intervalNS <= 0 {
		panic("metrics: sampler interval must be positive")
	}
	return &Sampler{reg: reg, IntervalNS: intervalNS}
}

// Rebase records the baseline snapshot at simulated time nowNS: the
// cumulative readings sampling starts from. Per-interval deltas of the
// resulting series are measured against it, so counts accumulated
// before sampling began (e.g. cache warmup) don't pollute the first
// interval.
func (s *Sampler) Rebase(nowNS int64) {
	s.baseTimeNS = nowNS
	s.base = s.reg.Snapshot()
}

// Tick records one sample at simulated time nowNS.
func (s *Sampler) Tick(nowNS int64) {
	s.samples = append(s.samples, Sample{TimeNS: nowNS, Values: s.reg.Snapshot()})
}

// Len returns the number of recorded samples.
func (s *Sampler) Len() int { return len(s.samples) }

// Series assembles the recorded samples into a TimeSeries.
func (s *Sampler) Series() TimeSeries {
	return TimeSeries{
		IntervalNS: s.IntervalNS,
		BaseTimeNS: s.baseTimeNS,
		Names:      s.reg.Names(),
		Base:       s.base,
		Samples:    s.samples,
	}
}

// CloneInto deep-copies the sampler's recorded data, re-pointing it at a
// new registry (the clone of a machine wires its own instruments).
func (s *Sampler) CloneInto(reg *Registry) *Sampler {
	cp := &Sampler{reg: reg, IntervalNS: s.IntervalNS, baseTimeNS: s.baseTimeNS, samples: make([]Sample, len(s.samples))}
	if s.base != nil {
		cp.base = make(Snapshot, len(s.base))
		for k, v := range s.base {
			cp.base[k] = v
		}
	}
	for i, smp := range s.samples {
		vals := make(Snapshot, len(smp.Values))
		for k, v := range smp.Values {
			vals[k] = v
		}
		cp.samples[i] = Sample{TimeNS: smp.TimeNS, Values: vals}
	}
	return cp
}

// TimeSeries is an interval-sampled metric trace: cumulative readings of
// every instrument at each tick. Derived per-interval series (IPC, miss
// rates, utilization) come from the Delta/Ratio helpers.
type TimeSeries struct {
	IntervalNS int64
	// BaseTimeNS and Base record the sampling epoch: the simulated time
	// sampling was enabled and the cumulative readings at that moment.
	// Deltas are measured against them, so the first interval covers only
	// activity after sampling began.
	BaseTimeNS int64
	Names      []string
	Base       Snapshot
	Samples    []Sample
}

// Len returns the number of samples.
func (ts TimeSeries) Len() int { return len(ts.Samples) }

// Delta returns per-interval increments of a cumulative instrument: one
// entry per sample, the first measured against the baseline at the
// sampling epoch (zero when no baseline was recorded).
func (ts TimeSeries) Delta(name string) []float64 {
	out := make([]float64, len(ts.Samples))
	prev := ts.Base[name]
	for i, s := range ts.Samples {
		v := s.Values[name]
		out[i] = v - prev
		prev = v
	}
	return out
}

// DeltaTime returns the simulated nanoseconds spanned by each interval.
func (ts TimeSeries) DeltaTime() []float64 {
	out := make([]float64, len(ts.Samples))
	prev := ts.BaseTimeNS
	if ts.Base == nil && len(ts.Samples) > 0 {
		// No recorded epoch: assume the first interval starts one cadence
		// before the first tick.
		prev = ts.Samples[0].TimeNS - ts.IntervalNS
		if prev < 0 {
			prev = 0
		}
	}
	for i, s := range ts.Samples {
		out[i] = float64(s.TimeNS - prev)
		prev = s.TimeNS
	}
	return out
}

// Ratio returns per-interval delta(num)/delta(den), 0 where the
// denominator's delta is 0 — e.g. L2 misses per L2 access.
func (ts TimeSeries) Ratio(num, den string) []float64 {
	return Div(ts.Delta(num), ts.Delta(den))
}

// PerCycle returns per-interval delta(name) per simulated nanosecond
// (= per cycle at the modelled 1 GHz clock) — e.g. instructions per
// cycle from a cumulative instruction counter.
func (ts TimeSeries) PerCycle(name string) []float64 {
	return Div(ts.Delta(name), ts.DeltaTime())
}

// Div divides two equal-length series elementwise, yielding 0 where the
// denominator is 0.
func Div(num, den []float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		if i < len(den) && den[i] != 0 {
			out[i] = num[i] / den[i]
		}
	}
	return out
}

// WriteCSV emits the series as CSV: a time_ns column followed by one
// column per instrument (sorted names), one row per sample, cumulative
// readings. When a baseline epoch was recorded it becomes the first
// row, so diffing consecutive rows yields every per-interval delta.
func (ts TimeSeries) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"time_ns"}, ts.Names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	rows := ts.Samples
	if ts.Base != nil {
		rows = append([]Sample{{TimeNS: ts.BaseTimeNS, Values: ts.Base}}, rows...)
	}
	for _, s := range rows {
		rec[0] = strconv.FormatInt(s.TimeNS, 10)
		for i, name := range ts.Names {
			rec[i+1] = strconv.FormatFloat(s.Values[name], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVSeries parses WriteCSV output back into a TimeSeries (cumulative
// values only; IntervalNS is inferred from the first two samples). Used
// by tests and external tooling round-tripping exported series.
func ReadCSVSeries(r io.Reader) (TimeSeries, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return TimeSeries{}, err
	}
	if len(recs) == 0 || len(recs[0]) == 0 || recs[0][0] != "time_ns" {
		return TimeSeries{}, fmt.Errorf("metrics: not a series CSV")
	}
	ts := TimeSeries{Names: append([]string(nil), recs[0][1:]...)}
	for _, rec := range recs[1:] {
		t, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return TimeSeries{}, err
		}
		vals := make(Snapshot, len(ts.Names))
		for i, name := range ts.Names {
			v, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return TimeSeries{}, err
			}
			vals[name] = v
		}
		ts.Samples = append(ts.Samples, Sample{TimeNS: t, Values: vals})
	}
	if len(ts.Samples) >= 2 {
		ts.IntervalNS = ts.Samples[1].TimeNS - ts.Samples[0].TimeNS
	}
	return ts, nil
}
