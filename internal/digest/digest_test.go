package digest

import (
	"encoding/json"
	"math"
	"testing"
)

func TestHashDeterministicAndOrderSensitive(t *testing.T) {
	a := New()
	a.U64(1)
	a.U64(2)
	b := New()
	b.U64(1)
	b.U64(2)
	if a.Sum() != b.Sum() {
		t.Fatalf("same inputs, different sums: %x vs %x", a.Sum(), b.Sum())
	}
	c := New()
	c.U64(2)
	c.U64(1)
	if a.Sum() == c.Sum() {
		t.Fatalf("order-insensitive hash: %x", a.Sum())
	}
}

func TestMix64(t *testing.T) {
	if Mix64(0) == 0 {
		t.Fatalf("Mix64(0) must not be 0 (XOR-fold identity hazard)")
	}
	if Mix64(1) == Mix64(2) {
		t.Fatalf("Mix64 collision on trivial inputs")
	}
	if Mix64(7) != Mix64(7) {
		t.Fatalf("Mix64 not deterministic")
	}
}

func TestComponentNamesExhaustive(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < NumComponents; c++ {
		s := Component(c).String()
		if s == "" || s == "invalid" {
			t.Fatalf("component %d has no name", c)
		}
		if seen[s] {
			t.Fatalf("duplicate component name %q", s)
		}
		seen[s] = true
	}
	if Component(NumComponents).String() != "invalid" {
		t.Fatalf("out-of-range component must stringify as invalid")
	}
}

func TestRecorderChainsMonotone(t *testing.T) {
	// Two recorders fed identical raws except at interval 3: every
	// sample from 3 on must differ (chain monotonicity), and samples
	// before 3 must match.
	a := NewRecorder(1000)
	b := NewRecorder(1000)
	for i := 0; i < 8; i++ {
		raw := Vector{uint64(i), 2, 3, 4, 5}
		rawB := raw
		if i == 3 {
			rawB[CompKernel]++
		}
		a.Record(int64(i)*1000, raw)
		b.Record(int64(i)*1000, rawB)
	}
	sa, sb := a.Series(), b.Series()
	for i := 0; i < 3; i++ {
		if sa.Samples[i].Chain != sb.Samples[i].Chain {
			t.Fatalf("interval %d diverged before the injected fork", i)
		}
	}
	for i := 3; i < 8; i++ {
		if sa.Samples[i].Chain[CompKernel] == sb.Samples[i].Chain[CompKernel] {
			t.Fatalf("interval %d: kernel chain reconverged", i)
		}
		if sa.Samples[i].Chain[CompMem] != sb.Samples[i].Chain[CompMem] {
			t.Fatalf("interval %d: untouched component diverged", i)
		}
	}
}

func TestNewRecorderPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewRecorder(0) did not panic")
		}
	}()
	NewRecorder(0)
}

func TestRecorderClone(t *testing.T) {
	r := NewRecorder(500)
	r.Record(500, Vector{1, 2, 3, 4, 5})
	cp := r.Clone()
	r.Record(1000, Vector{9, 9, 9, 9, 9})
	if cp.Len() != 1 || r.Len() != 2 {
		t.Fatalf("clone not independent: clone=%d orig=%d", cp.Len(), r.Len())
	}
	cp.Record(1000, Vector{9, 9, 9, 9, 9})
	if cp.Series().Samples[1].Chain != r.Series().Samples[1].Chain {
		t.Fatalf("clone chain state drifted from original")
	}
}

func mkSeries(raws []Vector) Series {
	r := NewRecorder(1000)
	for i, raw := range raws {
		r.Record(int64(i+1)*1000, raw)
	}
	return r.Series()
}

func TestDiffIdentical(t *testing.T) {
	raws := []Vector{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}}
	d := Diff(mkSeries(raws), mkSeries(raws))
	if d.Diverged {
		t.Fatalf("identical streams reported divergent: %+v", d)
	}
	if d.Compared != 2 {
		t.Fatalf("Compared = %d, want 2", d.Compared)
	}
}

func TestDiffMidStreamFork(t *testing.T) {
	a := make([]Vector, 10)
	b := make([]Vector, 10)
	for i := range a {
		a[i] = Vector{1, 2, 3, 4, 5}
		b[i] = a[i]
	}
	b[6][CompDRAM]++
	b[6][CompBpred]++
	d := Diff(mkSeries(a), mkSeries(b))
	if !d.Diverged || d.Interval != 6 {
		t.Fatalf("fork at 6 reported as %+v", d)
	}
	if d.TimeNS != 7000 {
		t.Fatalf("TimeNS = %d, want 7000", d.TimeNS)
	}
	if len(d.Components) != 2 || d.Components[0] != CompDRAM || d.Components[1] != CompBpred {
		t.Fatalf("Components = %v, want [dram bpred]", d.Components)
	}
}

func TestDiffFirstInterval(t *testing.T) {
	a := []Vector{{1, 2, 3, 4, 5}}
	b := []Vector{{1, 2, 3, 4, 6}}
	d := Diff(mkSeries(a), mkSeries(b))
	if !d.Diverged || d.Interval != 0 || len(d.Components) != 1 || d.Components[0] != CompWorkload {
		t.Fatalf("got %+v", d)
	}
}

func TestDiffLengthOnly(t *testing.T) {
	raws := []Vector{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}, {2, 2, 2, 2, 2}}
	long := mkSeries(raws)
	short := mkSeries(raws[:2])
	d := Diff(short, long)
	if !d.Diverged || d.Interval != 2 {
		t.Fatalf("length-only divergence got %+v", d)
	}
	if d.TimeNS != 3000 {
		t.Fatalf("TimeNS = %d, want 3000 (from the longer stream)", d.TimeNS)
	}
	if len(d.Components) != 0 {
		t.Fatalf("length-only divergence must not list components: %v", d.Components)
	}
	// Symmetric argument order, same fork point.
	d2 := Diff(long, short)
	if d2.Interval != d.Interval || d2.TimeNS != d.TimeNS {
		t.Fatalf("Diff not symmetric on fork point: %+v vs %+v", d, d2)
	}
}

func TestDiffEmpty(t *testing.T) {
	var empty Series
	if d := Diff(empty, empty); d.Diverged {
		t.Fatalf("two empty streams reported divergent")
	}
	one := mkSeries([]Vector{{1, 2, 3, 4, 5}})
	d := Diff(empty, one)
	if !d.Diverged || d.Interval != 0 || len(d.Components) != 0 {
		t.Fatalf("empty-vs-nonempty got %+v", d)
	}
}

func TestSeriesJSONRoundTripExact(t *testing.T) {
	// Chain words near 2^64 must survive JSON round-trip exactly —
	// resume byte-identity depends on no float64 in the path.
	r := NewRecorder(250)
	r.Record(250, Vector{math.MaxUint64, math.MaxUint64 - 1, 1<<63 + 7, 3, 4})
	in := r.Series()
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Series
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.IntervalNS != in.IntervalNS || len(out.Samples) != len(in.Samples) {
		t.Fatalf("shape mismatch: %+v vs %+v", out, in)
	}
	if out.Samples[0] != in.Samples[0] {
		t.Fatalf("sample mismatch: %+v vs %+v", out.Samples[0], in.Samples[0])
	}
	buf2, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(buf) != string(buf2) {
		t.Fatalf("re-encode not byte-identical:\n%s\n%s", buf, buf2)
	}
}
