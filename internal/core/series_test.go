package core

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"varsim/internal/config"
	"varsim/internal/machine"
	"varsim/internal/rng"
)

var update = flag.Bool("update", false, "rewrite the series files under testdata")

// TestSampleRunSeriesGolden pins the interval series of one sampled run
// on each core, byte for byte as varsim -series-csv writes it: its
// columns, their order and every reading. Sampling reads nothing the
// simulation does, so only a model change may move these files
// (-update rewrites them).
func TestSampleRunSeriesGolden(t *testing.T) {
	for _, proc := range []config.ProcessorKind{config.SimpleProc, config.OOOProc} {
		t.Run(proc.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.NumCPUs, cfg.Processor = 4, proc
			ck, err := NewCheckpoint(cfg, "oltp", 1, 1, 60)
			if err != nil {
				t.Fatal(err)
			}
			m := ck.Snapshot()
			m.SetPerturbSeed(7)
			m.EnableSampling(20_000)
			if _, err := m.Run(40); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := m.MetricSeries().WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "series_"+proc.String()+".csv")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("series differs from %s:\n got %s\nwant %s", path, got.Bytes(), want)
			}
		})
	}
}

// TestSampledPlanSeriesAreItsRuns pins a sampled plan: run i's series is
// the one a snapshot re-seeded as run i records, and sampling leaves
// every measurement but the event count (its ticks) as an unsampled
// plan has it. TestBranchEquivalence holds a sampled plan to every
// width, and to re-running rather than replaying.
func TestSampledPlanSeriesAreItsRuns(t *testing.T) {
	e := smallExperiment()
	e.Runs = 3
	base, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	const tick = 20_000
	plain := e.BranchPlan()
	want, err := Branch(base, plain)
	if err != nil {
		t.Fatal(err)
	}
	sampled := plain
	sampled.SampleIntervalNS = tick
	got, err := Branch(base, sampled)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got.Runs {
		if r.Series == nil {
			t.Fatalf("run %d of a sampled plan has no series", i)
		}
		// A tick is one more event, and nothing else.
		res := r.Result
		res.Events -= uint64(len(r.Series.Samples))
		if res != want.Runs[i].Result {
			t.Errorf("run %d: sampled %+v less its ticks, unsampled %+v", i, res, want.Runs[i].Result)
		}
		m := base.Snapshot()
		m.SetPerturbSeed(rng.Derive(e.SeedBase, 1+uint64(i)))
		m.EnableSampling(tick)
		if _, err := m.Run(e.MeasureTxns); err != nil {
			t.Fatal(err)
		}
		if r.Series.Len() == 0 || !reflect.DeepEqual(*r.Series, m.MetricSeries()) {
			t.Errorf("run %d: plan series (%d samples) is not the run's own (%d samples)", i, r.Series.Len(), m.MetricSeries().Len())
		}
	}
}

// TestBranchRefusesTwoCadences: digests and samples ride one tick, so a
// plan asking for both at different cadences fails before any warmup.
func TestBranchRefusesTwoCadences(t *testing.T) {
	p := smallExperiment().BranchPlan()
	p.DigestIntervalNS, p.SampleIntervalNS = 10_000, 20_000
	_, err := branch("h", func() (*machine.Machine, error) {
		t.Fatal("a plan at two cadences warmed its checkpoint")
		return nil, errors.New("unreachable")
	}, p)
	if err == nil {
		t.Fatal("plan at two cadences accepted")
	}
	p.SampleIntervalNS = p.DigestIntervalNS
	if err := p.validate(); err != nil {
		t.Errorf("one cadence refused: %v", err)
	}
}
