package metrics

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// counter registers a CounterFunc over a variable the test then moves.
func counter(r *Registry, name string) *uint64 {
	v := new(uint64)
	r.CounterFunc(name, func() uint64 { return *v })
	return v
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := counter(r, "a.count")
	lvl := 0.0
	r.GaugeFunc("a.level", func() float64 { return lvl })
	*c += 5
	lvl = 2.5
	cnt, g := r.Get("a.count"), r.Get("a.level")
	if cnt.Value() != 5 || cnt.Name() != "a.count" {
		t.Fatalf("counter %q = %v", cnt.Name(), cnt.Value())
	}
	if g.Value() != 2.5 || g.Name() != "a.level" {
		t.Fatalf("gauge %q = %v", g.Name(), g.Value())
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	var raw uint64
	lvl := 3.0
	r.CounterFunc("x.count", func() uint64 { return raw })
	r.GaugeFunc("x.level", func() float64 { return lvl })
	raw = 7
	s := r.Snapshot()
	if s["x.count"] != 7 || s["x.level"] != 3 {
		t.Fatalf("snapshot = %v", s)
	}
	lvl = 9
	if r.Get("x.level").Value() != 9 {
		t.Fatal("gauge func not live")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram("lat", []float64{10, 100, 1000})
	r.Register(h)
	for _, v := range []float64{1, 5, 10, 50, 200, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 || r.Snapshot()["lat"] != 6 {
		t.Fatalf("count = %d, registry reads %v", h.Count(), r.Snapshot()["lat"])
	}
	if got := h.counts; !reflect.DeepEqual(got, []uint64{3, 1, 1, 1}) {
		t.Fatalf("buckets = %v", got)
	}
	if h.Sum() != 5266 {
		t.Fatalf("sum = %v", h.Sum())
	}
	if m := h.Mean(); math.Abs(m-5266.0/6) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	var empty Histogram
	if empty.Mean() != 0 {
		t.Fatal("empty histogram should read 0")
	}
}

// A histogram cloned over a spent one reads as the original, reuses the
// spent one's bucket array, and moves independently of the original.
func TestHistogramCloneOver(t *testing.T) {
	h := NewHistogram("lat", []float64{10, 100})
	h.Observe(5)
	h.Observe(500)
	spent := NewHistogram("other", []float64{1, 2, 3, 4})
	spent.Observe(3)
	buckets := &spent.counts[0]
	for _, c := range []*Histogram{h.CloneOver(nil), h.CloneOver(spent)} {
		if c.Name() != "lat" || c.Count() != 2 || c.Sum() != 505 || !reflect.DeepEqual(c.counts, []uint64{1, 0, 1}) {
			t.Fatalf("clone = %+v, want %+v", c, h)
		}
		c.Observe(50)
		if h.Count() != 2 || h.counts[1] != 0 {
			t.Fatal("clone shares buckets with the original")
		}
	}
	if &spent.counts[0] != buckets {
		t.Fatal("clone over a spent histogram did not reuse its bucket array")
	}
}

func TestRegistryNamesSortedAndDupPanics(t *testing.T) {
	r := NewRegistry()
	counter(r, "z")
	counter(r, "a")
	counter(r, "m")
	if got := r.Names(); !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Fatalf("names = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	counter(r, "a")
}

func TestSamplerSeriesAndDerived(t *testing.T) {
	r := NewRegistry()
	c := counter(r, "instrs")
	d := counter(r, "misses")
	a := counter(r, "accesses")
	s := NewSampler(r, 100)
	for i := 1; i <= 3; i++ {
		*c += uint64(100 * i) // 100, 300, 600 cumulative
		*d += uint64(i)       // 1, 3, 6
		*a += 10              // 10, 20, 30
		s.Tick(int64(100 * i))
	}
	ts := s.Series()
	if ts.Len() != 3 || ts.IntervalNS != 100 {
		t.Fatalf("series %d samples interval %d", ts.Len(), ts.IntervalNS)
	}
	for i, want := range []float64{100, 300, 600} {
		if got := ts.Samples[i].Values["instrs"]; got != want {
			t.Fatalf("sample %d level = %v, want %v", i, got, want)
		}
	}
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
	if got := ts.Ratio("misses", "nonexistent"); !reflect.DeepEqual(got, []float64{0, 0, 0}) {
		t.Fatalf("ratio by zero = %v", got)
	}
}

func TestSamplerCloneIsIndependent(t *testing.T) {
	r := NewRegistry()
	c := counter(r, "n")
	s := NewSampler(r, 10)
	*c++
	s.Tick(10)

	r2 := NewRegistry()
	c2 := counter(r2, "n")
	cp := s.CloneInto(r2)
	*c2 += 5
	cp.Tick(20)
	if s.Len() != 1 || cp.Len() != 2 {
		t.Fatalf("lens %d %d", s.Len(), cp.Len())
	}
	// Mutating the clone's first sample must not touch the original.
	cp.samples[0].Values["n"] = 99
	if s.samples[0].Values["n"] != 1 {
		t.Fatal("clone shares sample maps")
	}
}

func TestSeriesCSVRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := counter(r, "b.count")
	var lvl float64
	r.GaugeFunc("a.level", func() float64 { return lvl })
	s := NewSampler(r, 50)
	for i := 1; i <= 4; i++ {
		*c += 3
		lvl = float64(i) / 2
		s.Tick(int64(50 * i))
	}
	ts := s.Series()
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.IntervalNS != 50 || !reflect.DeepEqual(got.Names, ts.Names) {
		t.Fatalf("round trip header: %+v", got)
	}
	for i := range ts.Samples {
		if got.Samples[i].TimeNS != ts.Samples[i].TimeNS ||
			!reflect.DeepEqual(got.Samples[i].Values, ts.Samples[i].Values) {
			t.Fatalf("sample %d: %+v != %+v", i, got.Samples[i], ts.Samples[i])
		}
	}
}

// TestEmptySeriesExports pins the degenerate case: a series with no
// samples (sampling enabled, run ended before the first tick) must
// still export a parseable CSV and round-trip to an empty series.
func TestEmptySeriesExports(t *testing.T) {
	ts := TimeSeries{IntervalNS: 100, Names: []string{"a", "b"}}

	var csvBuf bytes.Buffer
	if err := ts.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	gotCSV, err := ReadCSVSeries(&csvBuf)
	if err != nil {
		t.Fatalf("empty CSV unparseable: %v\n%s", err, csvBuf.String())
	}
	if gotCSV.Len() != 0 || !reflect.DeepEqual(gotCSV.Names, ts.Names) {
		t.Fatalf("empty CSV round trip = %+v", gotCSV)
	}

	// Derived series over zero samples are empty, not panics.
	if len(ts.Delta("a")) != 0 || len(ts.PerCycle("a")) != 0 || len(ts.DeltaTime()) != 0 {
		t.Fatal("derived series over empty TimeSeries not empty")
	}
}

// TestSingleIntervalSeries covers the one-sample series, whose only
// delta is measured entirely against the baseline epoch — and whose CSV
// round trip cannot infer IntervalNS (it needs two rows).
func TestSingleIntervalSeries(t *testing.T) {
	r := NewRegistry()
	c := counter(r, "n")
	*c += 7
	s := NewSampler(r, 100)
	s.Rebase(50)
	*c += 10
	s.Tick(150)
	ts := s.Series()

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
	got, err := ReadCSVSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline row exports as the first CSV row, so the parsed series
	// has two samples and the level sequence 7 -> 17 survives.
	if got.Len() != 2 || got.Samples[0].Values["n"] != 7 || got.Samples[1].Values["n"] != 17 {
		t.Fatalf("single-interval CSV round trip = %+v", got)
	}
}

// TestSeriesRoundTripNonFinite checks NaN and ±Inf readings — ratios
// over empty intervals, saturated gauges — survive the CSV export,
// which carries them as strconv's literals.
func TestSeriesRoundTripNonFinite(t *testing.T) {
	ts := TimeSeries{
		IntervalNS: 10,
		Names:      []string{"inf", "nan", "neg"},
		Samples: []Sample{
			{TimeNS: 10, Values: Snapshot{"inf": math.Inf(1), "nan": math.NaN(), "neg": math.Inf(-1)}},
			{TimeNS: 20, Values: Snapshot{"inf": 1, "nan": 2, "neg": -3}},
		},
	}
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVSeries(&buf)
	if err != nil {
		t.Fatalf("CSV round trip: %v", err)
	}
	if got.Len() != 2 {
		t.Fatalf("CSV round trip lost samples: %+v", got)
	}
	if v := got.Samples[0].Values; !math.IsInf(v["inf"], 1) || !math.IsNaN(v["nan"]) || !math.IsInf(v["neg"], -1) {
		t.Fatalf("CSV round trip mangled non-finite values: %v", v)
	}
	if v := got.Samples[1].Values; v["inf"] != 1 || v["nan"] != 2 || v["neg"] != -3 {
		t.Fatalf("CSV round trip mangled finite values: %v", v)
	}
}
