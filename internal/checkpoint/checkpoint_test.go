package checkpoint

import (
	"slices"
	"testing"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/machine"
)

func testRecipe() Recipe {
	cfg := config.Default()
	cfg.NumCPUs = 4
	return Recipe{
		Config:       cfg,
		Workload:     "oltp",
		WorkloadSeed: 7,
		PerturbSeed:  3,
		WarmupTxns:   25,
	}
}

func TestBuildReplaysDeterministically(t *testing.T) {
	r := testRecipe()
	m1, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	// txns reads the transactions m has completed: the machine.txns
	// column of the base row a snapshot's interval series starts from.
	txns := func(m *machine.Machine) int64 {
		s := m.Snapshot()
		s.EnableSampling(1_000)
		ts := s.MetricSeries()
		return int64(ts.Base[slices.Index(ts.Names, "machine.txns")])
	}
	if m1.Now() != m2.Now() || txns(m1) != txns(m2) {
		t.Fatalf("replay mismatch: t=%d/%d txns=%d/%d", m1.Now(), m2.Now(), txns(m1), txns(m2))
	}
	if txns(m1) < r.WarmupTxns {
		t.Fatalf("warmup incomplete: %d", txns(m1))
	}
	// The rebuilt checkpoints must behave identically going forward.
	r1, err := m1.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("rebuilt checkpoints diverged:\n%+v\n%+v", r1, r2)
	}
}

func TestBuildMatchesLiveSnapshotBehaviour(t *testing.T) {
	// A rebuilt checkpoint and the machine it describes must produce the
	// same measurements.
	r := testRecipe()
	live, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	resLive, err := live.Snapshot().Run(10)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	resRebuilt, err := rebuilt.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if resLive != resRebuilt {
		t.Fatalf("rebuild != snapshot:\n%+v\n%+v", resLive, resRebuilt)
	}
}

func TestValidation(t *testing.T) {
	r := testRecipe()
	r.Workload = ""
	if r.Validate() == nil {
		t.Error("empty workload accepted")
	}
	r = testRecipe()
	r.WarmupTxns = -1
	if r.Validate() == nil {
		t.Error("negative warmup accepted")
	}
	r = testRecipe()
	r.Config.NumCPUs = 0
	if r.Validate() == nil {
		t.Error("bad config accepted")
	}
	r = testRecipe()
	r.Workload = "nosuch"
	if _, err := r.Build(); err == nil {
		t.Error("unknown workload built")
	}
}

func TestFromExperimentMatchesPrepare(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 4
	e := core.Experiment{
		Label: "x", Config: cfg, Workload: "oltp",
		WorkloadSeed: 5, WarmupTxns: 20, MeasureTxns: 10, Runs: 1, SeedBase: 9,
	}
	prepared, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := FromExperiment(e).Build()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := prepared.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rebuilt.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("recipe does not reproduce Prepare's checkpoint:\n%+v\n%+v", r1, r2)
	}
}
