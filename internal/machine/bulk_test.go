package machine

import (
	"fmt"
	"reflect"
	"testing"

	"varsim/internal/config"
	"varsim/internal/digest"
	"varsim/internal/metrics"
	"varsim/internal/trace"
)

// everything is all a caller can read off a machine after a run: the
// window's Result, the clock, and every recording the machine keeps
// (the trace events include every dispatch and transaction end).
type everything struct {
	Result  Result
	Now     int64
	Digests digest.Series
	Events  []trace.Event
	Metrics metrics.TimeSeries
}

func readEverything(m *Machine, res Result) everything {
	return everything{res, m.Now(), m.DigestSeries(), m.Trace().Events(), m.MetricSeries()}
}

// perOp strips the bulk compute-run path from m, leaving the op-by-op
// simple core every trajectory was recorded on. Snapshots find the bulk
// form again, so each machine of the per-op lineage is stripped anew.
func perOp(m *Machine) *Machine {
	m.runs = nil
	return m
}

// TestBulkMatchesPerOp is the bulk path's differential test: twin
// machines, one consuming compute runs through workload.RunStepper and
// one op by op, must be indistinguishable — same Result, same five
// digest chains tick for tick, same trace events (transaction times and
// dispatches among them) and sampled metrics — from a fresh machine
// through every kind of copy, under the settings that move where a bulk step must
// stop: quanta so short that deadlines fall inside compute runs (20 µs,
// and 2 µs so that enough of them land on an op boundary to tell < from
// ≤; both jittered, so the perturbation stream is drawn from at
// dispatch), the MESI protocol, and no miss perturbation.
func TestBulkMatchesPerOp(t *testing.T) {
	const tickNS = 20_000
	workloads := []struct {
		name string
		txns int64
	}{{"oltp", 20}, {"apache", 60}, {"specjbb", 80}, {"slashcode", 6}, {"ecperf", 3}}
	variants := []struct {
		name string
		set  func(*config.Config)
	}{
		{"defaults", func(*config.Config) {}},
		{"quantum20us", func(c *config.Config) { c.QuantumNS, c.PerturbQuantumNS = 20_000, 7_000 }},
		{"quantum2us", func(c *config.Config) { c.QuantumNS, c.PerturbQuantumNS = 2_000, 1_000 }},
		{"mesi", func(c *config.Config) { c.CoherenceMESI = true }},
		{"unperturbed", func(c *config.Config) { c.PerturbMaxNS = 0 }},
	}
	// The copies a machine can be, each made from a warmed base. The base
	// itself comes last: it runs the bases on, and the other forms branch
	// from where the warm-up left them.
	forms := []struct {
		name string
		of   func(t *testing.T, base *Machine, strip func(*Machine) *Machine) *Machine
	}{
		{"snapshot", func(_ *testing.T, base *Machine, strip func(*Machine) *Machine) *Machine {
			return strip(base.Snapshot())
		}},
		{"snapshot-over", func(t *testing.T, base *Machine, strip func(*Machine) *Machine) *Machine {
			spent := strip(base.Snapshot())
			spent.SetPerturbSeed(3)
			if _, err := spent.Run(2); err != nil {
				t.Fatal(err)
			}
			return strip(base.SnapshotOver(spent))
		}},
		{"materialized", func(_ *testing.T, base *Machine, strip func(*Machine) *Machine) *Machine {
			m := strip(base.Snapshot())
			m.Materialize()
			return m
		}},
		{"base", func(_ *testing.T, base *Machine, _ func(*Machine) *Machine) *Machine { return base }},
	}
	for _, wl := range workloads {
		for _, v := range variants {
			t.Run(wl.name+"/"+v.name, func(t *testing.T) {
				cfg := testConfig()
				v.set(&cfg)
				keep := func(m *Machine) *Machine { return m }
				var bases [2]*Machine
				for i, strip := range []func(*Machine) *Machine{keep, perOp} {
					m := strip(mustMachine(t, cfg, wl.name, 7, 99))
					m.EnableDigests(tickNS)
					m.EnableSampling(tickNS)
					m.EnableTrace(0)
					bases[i] = m
				}
				if bases[0].runs == nil || bases[1].runs != nil {
					t.Fatal("the twins are not one bulk, one per-op")
				}
				// step runs both twins through the same call and compares
				// all they left behind.
				step := func(what string, twins [2]*Machine, run func(*Machine) (Result, error)) {
					t.Helper()
					var got [2]everything
					for i, m := range twins {
						res, err := run(m)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						got[i] = readEverything(m, res)
					}
					if !reflect.DeepEqual(got[0], got[1]) {
						t.Fatalf("%s: bulk and per-op machines diverged: %s", what, firstDifference(got[0], got[1]))
					}
				}
				step("warm-up", bases, func(m *Machine) (Result, error) { return m.Run(wl.txns) })
				for _, f := range forms {
					twins := [2]*Machine{f.of(t, bases[0], keep), f.of(t, bases[1], perOp)}
					for _, m := range twins {
						m.SetPerturbSeed(5)
					}
					step(f.name+" Run", twins, func(m *Machine) (Result, error) { return m.Run(wl.txns) })
					step(f.name+" RunNS", twins, func(m *Machine) (Result, error) { return m.RunNS(5 * tickNS) })
				}
			})
		}
	}
}

// firstDifference names the first field of two run records that
// differs, and for the recordings the first element.
func firstDifference(a, b everything) string {
	if a.Result != b.Result {
		return fmt.Sprintf("Result\nbulk:   %+v\nper-op: %+v", a.Result, b.Result)
	}
	if a.Now != b.Now {
		return fmt.Sprintf("clock %d vs %d", a.Now, b.Now)
	}
	for i := 0; i < a.Digests.Len() && i < b.Digests.Len(); i++ {
		if sa, sb := a.Digests.Samples[i], b.Digests.Samples[i]; sa != sb {
			for c, name := range digest.ComponentNames() {
				if sa.Chain[c] != sb.Chain[c] {
					return fmt.Sprintf("%s digest chain at tick %d (%d ns)", name, i, sa.TimeNS)
				}
			}
			return fmt.Sprintf("digest tick %d: %+v vs %+v", i, sa, sb)
		}
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return va.Type().Field(i).Name
		}
	}
	return "nothing"
}
