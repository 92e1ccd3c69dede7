package bpred

import (
	"testing"

	"varsim/internal/config"
	"varsim/internal/rng"
)

func unit() *Unit { return New(config.Default().OOO) }

func TestAlwaysTakenLearned(t *testing.T) {
	u := unit()
	miss := 0
	for i := 0; i < 1000; i++ {
		if !u.PredictCond(0x10, true) {
			miss++
		}
	}
	if miss > 2 {
		t.Fatalf("always-taken branch missed %d times", miss)
	}
}

func TestAlwaysNotTakenLearned(t *testing.T) {
	u := unit()
	miss := 0
	for i := 0; i < 1000; i++ {
		if !u.PredictCond(0x20, false) {
			miss++
		}
	}
	if miss > 3 {
		t.Fatalf("never-taken branch missed %d times", miss)
	}
}

func TestBiasedBranchAccuracy(t *testing.T) {
	u := unit()
	r := rng.New(5)
	miss := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		taken := r.Bool(0.9)
		if !u.PredictCond(uint32(i%8), taken) {
			miss++
		}
	}
	acc := 1 - float64(miss)/trials
	if acc < 0.85 {
		t.Fatalf("90%%-biased branches predicted at %.3f", acc)
	}
	if u.CondSeen != trials || u.CondMiss != uint64(miss) {
		t.Fatalf("counters read %d seen, %d missed; %d predictions returned %d wrong", u.CondSeen, u.CondMiss, trials, miss)
	}
}

func TestAlternatingPatternViaExceptions(t *testing.T) {
	// YAGS's exception caches capture history-correlated patterns that a
	// plain bimodal predictor cannot: a strict alternation should be
	// learned well above the 50% bimodal ceiling.
	u := unit()
	miss := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		if !u.PredictCond(0x77, i%2 == 0) {
			miss++
		}
	}
	acc := 1 - float64(miss)/float64(trials)
	if acc < 0.8 {
		t.Fatalf("alternating branch predicted at %.3f; YAGS should learn it", acc)
	}
}

func TestIndirectDominantTarget(t *testing.T) {
	u := unit()
	r := rng.New(7)
	miss := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		target := uint64(0x1000)
		if r.Bool(0.2) {
			target = 0x2000
		}
		if !u.PredictIndirect(3, target) {
			miss++
		}
	}
	acc := 1 - float64(miss)/float64(trials)
	if acc < 0.70 {
		t.Fatalf("80/20 indirect site predicted at %.3f; hysteresis should hold the dominant target", acc)
	}
}

func TestIndirectDistinctSites(t *testing.T) {
	u := unit()
	for i := 0; i < 100; i++ {
		u.PredictIndirect(1, 0xAAA)
		u.PredictIndirect(2, 0xBBB)
	}
	if !u.PredictIndirect(1, 0xAAA) || !u.PredictIndirect(2, 0xBBB) {
		t.Fatal("stable sites should both predict correctly")
	}
}

func TestRASBalanced(t *testing.T) {
	u := unit()
	for depth := 1; depth <= 32; depth++ {
		for i := 0; i < depth; i++ {
			u.Call(uint64(1000 + i))
		}
		for i := depth - 1; i >= 0; i-- {
			if !u.Ret(uint64(1000 + i)) {
				t.Fatalf("balanced call/ret mispredicted at depth %d", depth)
			}
		}
	}
	if u.RetMiss != 0 {
		t.Fatalf("RetMiss = %d on balanced streams", u.RetMiss)
	}
}

func TestRASOverflow(t *testing.T) {
	u := unit()
	n := len(u.ras)
	for i := 0; i < n+10; i++ {
		u.Call(uint64(i))
	}
	if u.Overflows != 10 {
		t.Fatalf("overflows = %d, want 10", u.Overflows)
	}
	// The newest n entries survive.
	for i := n + 9; i >= 10; i-- {
		if !u.Ret(uint64(i)) {
			t.Fatalf("post-overflow return %d mispredicted", i)
		}
	}
	// Older frames were discarded.
	if u.Ret(uint64(9)) {
		t.Fatal("discarded frame predicted correctly?")
	}
}

func TestRASUnderflow(t *testing.T) {
	u := unit()
	if u.Ret(1) {
		t.Fatal("empty RAS should mispredict")
	}
}

func TestCloneIndependence(t *testing.T) {
	u := unit()
	for i := 0; i < 500; i++ {
		u.PredictCond(9, i%3 != 0)
	}
	c := u.Clone()
	// Drive the clone differently; the original must be unaffected.
	for i := 0; i < 500; i++ {
		c.PredictCond(9, false)
	}
	before := u.CondMiss
	u.PredictCond(9, i3(499))
	if u.CondMiss > before+1 {
		t.Fatal("clone mutation leaked")
	}
	if c.CondSeen != u.CondSeen+499 {
		t.Fatalf("clone counters wrong: %d vs %d", c.CondSeen, u.CondSeen)
	}
}

func i3(i int) bool { return i%3 != 0 }

func TestDefaultGeometry(t *testing.T) {
	cfg := config.Default().OOO
	u := New(cfg)
	if len(u.ind1) != cfg.IndirectEntries || len(u.ras) != cfg.RASEntries {
		t.Fatal("geometry mismatch")
	}
	// Zero-value config falls back to sane defaults.
	u2 := New(config.OOOConfig{})
	if len(u2.choice) == 0 || len(u2.ind1) != 64 || len(u2.ras) != 64 {
		t.Fatal("default geometry wrong")
	}
}
