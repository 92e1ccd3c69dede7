// Package metrics holds the simulator's interval time series: the
// cumulative counter readings a machine samples at a fixed
// simulated-time cadence (see machine.EnableSampling), the
// per-interval series derived from them (IPC, miss rates, bus traffic)
// and their CSV export.
//
// Design constraints, inherited from the simulation kernel:
//
//   - Determinism: a series has fixed columns in a fixed order, and
//     every reading is taken synchronously on the simulation thread;
//     sampling never perturbs simulated behaviour.
//   - Checkpointability: a series is plain data that copies with
//     machine snapshots (Clone).
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Sample is one interval reading: the simulated time it was taken and
// the cumulative counter values at that moment, one per column of the
// series it belongs to.
type Sample struct {
	TimeNS int64
	Values []float64
}

// TimeSeries is an interval-sampled counter trace: cumulative readings
// of every column at each tick. Derived per-interval series (IPC, miss
// rates, utilization) come from the Delta/Ratio helpers.
type TimeSeries struct {
	IntervalNS int64
	// BaseTimeNS and Base record the sampling epoch: the simulated time
	// sampling was enabled and the cumulative readings at that moment.
	// Deltas are measured against them, so the first interval covers only
	// activity after sampling began.
	BaseTimeNS int64
	Names      []string // the columns; Base and every Sample's Values align with it
	Base       []float64
	Samples    []Sample
}

// Len returns the number of samples.
func (ts TimeSeries) Len() int { return len(ts.Samples) }

// Clone returns a copy of ts that shares no row with it (the column
// names, never written, are shared).
func (ts TimeSeries) Clone() TimeSeries {
	cp := ts
	cp.Base = slices.Clone(ts.Base)
	cp.Samples = make([]Sample, len(ts.Samples))
	for i, s := range ts.Samples {
		cp.Samples[i] = Sample{TimeNS: s.TimeNS, Values: slices.Clone(s.Values)}
	}
	return cp
}

// column returns the index of the named column. Column names are
// compile-time wiring, so an unknown one panics.
func (ts TimeSeries) column(name string) int {
	i := slices.Index(ts.Names, name)
	if i < 0 {
		panic(fmt.Sprintf("metrics: series has no column %q", name))
	}
	return i
}

// Delta returns per-interval increments of a cumulative column: one
// entry per sample, the first measured against the baseline at the
// sampling epoch.
func (ts TimeSeries) Delta(name string) []float64 {
	col := ts.column(name)
	out := make([]float64, len(ts.Samples))
	prev := ts.Base[col]
	for i, s := range ts.Samples {
		v := s.Values[col]
		out[i] = v - prev
		prev = v
	}
	return out
}

// DeltaTime returns the simulated nanoseconds spanned by each interval,
// the first from the sampling epoch.
func (ts TimeSeries) DeltaTime() []float64 {
	out := make([]float64, len(ts.Samples))
	prev := ts.BaseTimeNS
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
// column per name, then one row of cumulative readings for the
// baseline epoch and one per sample, so diffing consecutive rows
// yields every per-interval delta.
func (ts TimeSeries) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"time_ns"}, ts.Names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	rows := append([]Sample{{TimeNS: ts.BaseTimeNS, Values: ts.Base}}, ts.Samples...)
	for _, s := range rows {
		rec[0] = strconv.FormatInt(s.TimeNS, 10)
		for i, v := range s.Values {
			rec[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
