package machine

import (
	"slices"
	"testing"

	"varsim/internal/config"
	"varsim/internal/digest"
)

const digTickNS = 20_000

func runDigested(t *testing.T, perturbSeed uint64, txns int64) (digest.Series, Result) {
	t.Helper()
	m := mustMachine(t, testConfig(), "oltp", 7, perturbSeed)
	m.EnableDigests(digTickNS)
	res, err := m.Run(txns)
	if err != nil {
		t.Fatal(err)
	}
	return m.DigestSeries(), res
}

func seriesEqual(a, b digest.Series) bool {
	if a.IntervalNS != b.IntervalNS || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			return false
		}
	}
	return true
}

func TestDigestSeriesDeterministic(t *testing.T) {
	sa, _ := runDigested(t, 99, 25)
	sb, _ := runDigested(t, 99, 25)
	if sa.Len() == 0 {
		t.Fatal("no digest samples recorded")
	}
	if !seriesEqual(sa, sb) {
		t.Fatalf("identical seeds produced different digest streams")
	}
	if d := digest.Diff(sa, sb); d.Diverged {
		t.Fatalf("identical runs reported divergent: %+v", d)
	}
}

func TestDigestsDetectPerturbationDivergence(t *testing.T) {
	sa, _ := runDigested(t, 1, 25)
	sb, _ := runDigested(t, 2, 25)
	d := digest.Diff(sa, sb)
	if !d.Diverged {
		t.Fatal("perturbed runs never diverged in the digest stream")
	}
	// The fork point must be stable: recompute from fresh runs.
	sa2, _ := runDigested(t, 1, 25)
	sb2, _ := runDigested(t, 2, 25)
	d2 := digest.Diff(sa2, sb2)
	if d.Interval != d2.Interval || d.TimeNS != d2.TimeNS || !slices.Equal(d.Components, d2.Components) {
		t.Fatalf("fork point unstable across re-runs: %+v vs %+v", d, d2)
	}
}

func TestDigestingDoesNotPerturbTrajectory(t *testing.T) {
	// The determinism-wall contract: recording digests must not change
	// the simulated execution.
	plain := mustMachine(t, testConfig(), "oltp", 7, 99)
	resPlain, err := plain.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	_, resDig := runDigested(t, 99, 25)
	// Only the delivered-event count may differ: the drain ticks are
	// themselves events (same carve-out as metric sampling).
	resPlain.Events, resDig.Events = 0, 0
	if resPlain != resDig {
		t.Fatalf("digesting changed the run:\n%+v\n%+v", resPlain, resDig)
	}
}

func TestDigestsAcrossSnapshotBranches(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 3, 11)
	m.EnableDigests(digTickNS)
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	prefix := m.DigestSeries().Len()
	s1 := m.Snapshot()
	s2 := m.Snapshot()
	s1.SetPerturbSeed(41)
	s2.SetPerturbSeed(41)
	if _, err := s1.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(10); err != nil {
		t.Fatal(err)
	}
	d1, d2 := s1.DigestSeries(), s2.DigestSeries()
	if d1.Len() <= prefix {
		t.Fatalf("branch recorded no new samples past the %d-sample prefix", prefix)
	}
	if !seriesEqual(d1, d2) {
		t.Fatalf("same-seed branches produced different digest streams")
	}
	// A differently-perturbed branch shares the checkpoint prefix and
	// forks only after it.
	s3 := m.Snapshot()
	s3.SetPerturbSeed(42)
	if _, err := s3.Run(10); err != nil {
		t.Fatal(err)
	}
	d := digest.Diff(d1, s3.DigestSeries())
	if !d.Diverged {
		t.Fatal("differently-perturbed branches never diverged")
	}
	if d.Interval < prefix {
		t.Fatalf("branches diverged at interval %d, inside the shared %d-sample prefix", d.Interval, prefix)
	}
}

// TestDigestsIndependentOfFirstSigRead: a cache signature is folded on
// its lineage's first read and kept current from then on, so when it was
// first read must not show in any digest. Two identical checkpoints —
// one never read, one whose every cache signature was read before Freeze
// — are snapshotted and branched with digests on, on both cores; the
// two series must be identical, and must not be empty.
func TestDigestsIndependentOfFirstSigRead(t *testing.T) {
	for _, proc := range []config.ProcessorKind{config.SimpleProc, config.OOOProc} {
		cfg := testConfig()
		cfg.Processor = proc
		branch := func(readFirst bool) digest.Series {
			m := mustMachine(t, cfg, "oltp", 3, 11)
			if _, err := m.Run(10); err != nil {
				t.Fatal(err)
			}
			if readFirst {
				h := digest.New()
				m.snoop.HashInto(&h)
			}
			m.Freeze()
			s := m.Snapshot()
			s.SetPerturbSeed(41)
			s.EnableDigests(digTickNS)
			if _, err := s.Run(10); err != nil {
				t.Fatal(err)
			}
			return s.DigestSeries()
		}
		cold, live := branch(false), branch(true)
		if cold.Len() == 0 || !seriesEqual(cold, live) {
			t.Fatalf("%v: digest series of a never-read checkpoint's branch (%d samples) and a read one's (%d) differ",
				proc, cold.Len(), live.Len())
		}
	}
}

func TestDigestsShareDrainStreamWithSampling(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 7, 99)
	m.EnableSampling(digTickNS)
	m.EnableDigests(digTickNS)
	if _, err := m.Run(15); err != nil {
		t.Fatal(err)
	}
	ds, ms := m.DigestSeries(), m.MetricSeries()
	if ds.Len() == 0 || ds.Len() != len(ms.Samples) {
		t.Fatalf("digest/sample counts differ: %d vs %d (must share one drain stream)", ds.Len(), len(ms.Samples))
	}
	for i := range ds.Samples {
		if ds.Samples[i].TimeNS != ms.Samples[i].TimeNS {
			t.Fatalf("tick %d: digest at %d ns, sample at %d ns", i, ds.Samples[i].TimeNS, ms.Samples[i].TimeNS)
		}
	}
	// Digest series must be identical whether or not sampling is on.
	only, _ := runDigested(t, 99, 15)
	if !seriesEqual(ds, only) {
		t.Fatalf("enabling sampling changed the digest stream")
	}
}

func TestMismatchedIntervalsPanic(t *testing.T) {
	check := func(name string, f func(m *Machine)) {
		m := mustMachine(t, testConfig(), "oltp", 7, 99)
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: mismatched intervals did not panic", name)
			}
		}()
		f(m)
	}
	check("digests-after-sampling", func(m *Machine) {
		m.EnableSampling(10_000)
		m.EnableDigests(20_000)
	})
	check("sampling-after-digests", func(m *Machine) {
		m.EnableDigests(10_000)
		m.EnableSampling(20_000)
	})
}

func TestDigestsCoverOOOModel(t *testing.T) {
	cfg := testConfig()
	cfg.Processor = config.OOOProc
	a := mustMachine(t, cfg, "oltp", 7, 1)
	b := mustMachine(t, cfg, "oltp", 7, 1)
	a.EnableDigests(digTickNS)
	b.EnableDigests(digTickNS)
	if _, err := a.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(10); err != nil {
		t.Fatal(err)
	}
	if !seriesEqual(a.DigestSeries(), b.DigestSeries()) {
		t.Fatalf("OOO digest streams not deterministic")
	}
	if a.DigestSeries().Len() == 0 {
		t.Fatal("no samples under the OOO model")
	}
}
