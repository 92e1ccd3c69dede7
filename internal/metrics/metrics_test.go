package metrics

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// readCSVSeries parses WriteCSV output back into a TimeSeries: the
// first row is the baseline epoch, IntervalNS is the gap between the
// first two sampled rows.
func readCSVSeries(r io.Reader) (TimeSeries, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return TimeSeries{}, err
	}
	if len(recs) == 0 || len(recs[0]) == 0 || recs[0][0] != "time_ns" {
		return TimeSeries{}, fmt.Errorf("metrics: not a series CSV")
	}
	ts := TimeSeries{Names: append([]string(nil), recs[0][1:]...)}
	for j, rec := range recs[1:] {
		t, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return TimeSeries{}, err
		}
		vals := make([]float64, len(ts.Names))
		for i := range vals {
			if vals[i], err = strconv.ParseFloat(rec[i+1], 64); err != nil {
				return TimeSeries{}, err
			}
		}
		if j == 0 {
			ts.BaseTimeNS, ts.Base = t, vals
			continue
		}
		ts.Samples = append(ts.Samples, Sample{TimeNS: t, Values: vals})
	}
	if len(ts.Samples) >= 2 {
		ts.IntervalNS = ts.Samples[1].TimeNS - ts.Samples[0].TimeNS
	}
	return ts, nil
}

// series is a three-column series ticking every 100 ns from 0.
func series() TimeSeries {
	ts := TimeSeries{IntervalNS: 100, Names: []string{"accesses", "instrs", "misses"}, Base: []float64{0, 0, 0}}
	var instrs, misses, accesses float64
	for i := 1; i <= 3; i++ {
		instrs += float64(100 * i) // 100, 300, 600 cumulative
		misses += float64(i)       // 1, 3, 6
		accesses += 10             // 10, 20, 30
		ts.Samples = append(ts.Samples, Sample{TimeNS: int64(100 * i), Values: []float64{accesses, instrs, misses}})
	}
	return ts
}

func TestSeriesDerived(t *testing.T) {
	ts := series()
	if got := ts.Delta("instrs"); !reflect.DeepEqual(got, []float64{100, 200, 300}) {
		t.Fatalf("deltas = %v", got)
	}
	if got := ts.DeltaTime(); !reflect.DeepEqual(got, []float64{100, 100, 100}) {
		t.Fatalf("dt = %v", got)
	}
	if got := ts.PerCycle("instrs"); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("IPC = %v", got)
	}
	want := []float64{1.0 / 10, 2.0 / 10, 3.0 / 10}
	if got := ts.Ratio("misses", "accesses"); !reflect.DeepEqual(got, want) {
		t.Fatalf("miss rate = %v", got)
	}
	if got := Div([]float64{1, 2, 3}, []float64{2, 0}); !reflect.DeepEqual(got, []float64{0.5, 0, 0}) {
		t.Fatalf("Div by zero and past den = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an unknown column should panic")
		}
	}()
	ts.Delta("nonexistent")
}

// A clone reads as the original and shares no row with it.
func TestSeriesCloneIsIndependent(t *testing.T) {
	ts := series()
	cp := ts.Clone()
	if !reflect.DeepEqual(cp, ts) {
		t.Fatalf("clone = %+v, want %+v", cp, ts)
	}
	cp.Base[0] = 99
	cp.Samples[0].Values[1] = 99
	cp.Samples = append(cp.Samples, Sample{TimeNS: 400, Values: []float64{40, 1000, 10}})
	if ts.Base[0] != 0 || ts.Samples[0].Values[1] != 100 || ts.Len() != 3 {
		t.Fatal("clone shares rows with the original")
	}
}

func TestSeriesCSVRoundTrip(t *testing.T) {
	ts := series()
	ts.Samples[1].Values[0] = 12.5 // a fraction survives too
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readCSVSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ts) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, ts)
	}
}

// TestEmptySeriesExports pins the degenerate case: a series with no
// samples (sampling enabled, run ended before the first tick) must
// still export a parseable CSV and round-trip to an empty series.
func TestEmptySeriesExports(t *testing.T) {
	ts := TimeSeries{IntervalNS: 100, BaseTimeNS: 50, Names: []string{"a", "b"}, Base: []float64{1, 2}}

	var csvBuf bytes.Buffer
	if err := ts.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	gotCSV, err := readCSVSeries(&csvBuf)
	if err != nil {
		t.Fatalf("empty CSV unparseable: %v\n%s", err, csvBuf.String())
	}
	if gotCSV.Len() != 0 || !reflect.DeepEqual(gotCSV.Names, ts.Names) || !reflect.DeepEqual(gotCSV.Base, ts.Base) {
		t.Fatalf("empty CSV round trip = %+v", gotCSV)
	}

	// Derived series over zero samples are empty, not panics.
	if len(ts.Delta("a")) != 0 || len(ts.PerCycle("a")) != 0 || len(ts.DeltaTime()) != 0 {
		t.Fatal("derived series over empty TimeSeries not empty")
	}
}

// TestSingleIntervalSeries covers the one-sample series, whose only
// delta is measured entirely against the baseline epoch — and whose CSV
// round trip cannot infer IntervalNS (it needs two sampled rows).
func TestSingleIntervalSeries(t *testing.T) {
	ts := TimeSeries{
		IntervalNS: 100, BaseTimeNS: 50, Names: []string{"n"}, Base: []float64{7},
		Samples: []Sample{{TimeNS: 150, Values: []float64{17}}},
	}
	if d := ts.Delta("n"); len(d) != 1 || d[0] != 10 {
		t.Fatalf("Delta = %v, want [10] (measured against the baseline)", d)
	}
	if dt := ts.DeltaTime(); len(dt) != 1 || dt[0] != 100 {
		t.Fatalf("DeltaTime = %v, want [100]", dt)
	}

	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "time_ns,n\n50,7\n150,17\n"; buf.String() != want {
		t.Fatalf("CSV = %q, want %q (the baseline row first)", buf.String(), want)
	}
	got, err := readCSVSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.IntervalNS != 0 || got.Len() != 1 || !reflect.DeepEqual(got.Delta("n"), []float64{10}) {
		t.Fatalf("single-interval CSV round trip = %+v", got)
	}
}

// TestSeriesRoundTripNonFinite checks NaN and ±Inf readings survive the
// CSV export, which carries them as strconv's literals.
func TestSeriesRoundTripNonFinite(t *testing.T) {
	ts := TimeSeries{
		IntervalNS: 10,
		Names:      []string{"inf", "nan", "neg"},
		Base:       []float64{0, 0, 0},
		Samples: []Sample{
			{TimeNS: 10, Values: []float64{math.Inf(1), math.NaN(), math.Inf(-1)}},
			{TimeNS: 20, Values: []float64{1, 2, -3}},
		},
	}
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readCSVSeries(&buf)
	if err != nil {
		t.Fatalf("CSV round trip: %v", err)
	}
	if got.Len() != 2 {
		t.Fatalf("CSV round trip lost samples: %+v", got)
	}
	if v := got.Samples[0].Values; !math.IsInf(v[0], 1) || !math.IsNaN(v[1]) || !math.IsInf(v[2], -1) {
		t.Fatalf("CSV round trip mangled non-finite values: %v", v)
	}
	if v := got.Samples[1].Values; !reflect.DeepEqual(v, []float64{1, 2, -3}) {
		t.Fatalf("CSV round trip mangled finite values: %v", v)
	}
}
