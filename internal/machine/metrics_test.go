package machine

import (
	"reflect"
	"slices"
	"testing"

	"varsim/internal/metrics"
)

// Interval sampling produces a non-empty series over sorted columns,
// every row a value per column and every column monotone, and two
// identically seeded runs sample bit-identical series (determinism).
func TestSamplingDeterministicSeries(t *testing.T) {
	series := func() metrics.TimeSeries {
		m := mustMachine(t, testConfig(), "oltp", 7, 3)
		m.EnableSampling(50_000) // 50 us
		if _, err := m.Run(40); err != nil {
			t.Fatal(err)
		}
		ts := m.MetricSeries()
		if ts.Len() < 3 {
			t.Fatalf("only %d samples", ts.Len())
		}
		if !slices.IsSorted(ts.Names) || len(ts.Base) != len(ts.Names) {
			t.Fatalf("columns %v not sorted, or base row of %d values", ts.Names, len(ts.Base))
		}
		prev := metrics.Sample{TimeNS: ts.BaseTimeNS, Values: ts.Base}
		for _, s := range ts.Samples {
			if s.TimeNS <= prev.TimeNS {
				t.Fatalf("sample times not ascending: %d then %d", prev.TimeNS, s.TimeNS)
			}
			if len(s.Values) != len(ts.Names) {
				t.Fatalf("row of %d values under %d columns", len(s.Values), len(ts.Names))
			}
			for i, v := range s.Values {
				if v < prev.Values[i] {
					t.Fatalf("cumulative %s decreased at %d ns", ts.Names[i], s.TimeNS)
				}
			}
			prev = s
		}
		if d := ts.Delta("machine.instrs"); d[0] <= 0 {
			t.Fatalf("no instructions in the first interval: %v", d)
		}
		return ts
	}
	a, b := series(), series()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identically seeded runs sampled different series")
	}
}

// Sampling must not perturb the simulated trajectory: the same run with
// and without sampling finishes at the same simulated time with the
// same CPT (only the delivered-event count differs, by the drain ticks).
func TestSamplingIsObservationOnly(t *testing.T) {
	run := func(sample bool) Result {
		m := mustMachine(t, testConfig(), "oltp", 5, 9)
		if sample {
			m.EnableSampling(25_000)
		}
		res, err := m.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, sampled := run(false), run(true)
	if plain.ElapsedNS != sampled.ElapsedNS || plain.CPT != sampled.CPT ||
		plain.Instrs != sampled.Instrs || plain.L2Misses != sampled.L2Misses {
		t.Fatalf("sampling perturbed the run:\nplain   %+v\nsampled %+v", plain, sampled)
	}
	if sampled.Events <= plain.Events {
		t.Fatal("sampled run should deliver extra drain events")
	}
}

// Snapshot clones carry the series independently: the clone keeps
// sampling its own counters without affecting the original.
func TestSnapshotClonesSampler(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 2, 4)
	m.EnableSampling(50_000)
	if _, err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	n := m.MetricSeries().Len()
	if n == 0 {
		t.Fatal("no samples before snapshot")
	}
	c := m.Snapshot()
	if _, err := c.Run(20); err != nil {
		t.Fatal(err)
	}
	if got := m.MetricSeries().Len(); got != n {
		t.Fatalf("original series advanced with the clone: %d -> %d", n, got)
	}
	ts := c.MetricSeries()
	if ts.Len() <= n {
		t.Fatal("clone did not keep sampling")
	}
	if !reflect.DeepEqual(ts.Samples[:n], m.MetricSeries().Samples) {
		t.Fatal("clone's series does not begin with the original's")
	}
	if d := ts.Delta("machine.instrs"); d[n] <= 0 {
		t.Fatalf("clone's first own interval counted no instructions: %v", d[n])
	}
}
