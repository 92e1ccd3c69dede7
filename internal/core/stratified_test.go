package core_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/journal"
	"varsim/internal/sampling"
)

// stratifiedExperiment is the AdaptiveTimeSample fixture; Runs is the
// per-stratum fixed-N baseline.
func stratifiedExperiment(workers int) core.Experiment {
	cfg := config.Default()
	cfg.NumCPUs = 4
	return core.Experiment{
		Label:        "strat-test",
		Config:       cfg,
		Workload:     "oltp",
		WorkloadSeed: 7,
		WarmupTxns:   20,
		MeasureTxns:  15,
		Runs:         8,
		SeedBase:     0xFEED,
		Workers:      workers,
	}
}

// stratifiedTarget is a multi-round stratified schedule: a tiny
// relative-error target and small rounds, so both strata run to the
// per-stratum budget.
func stratifiedTarget() sampling.Target {
	return sampling.Target{RelErr: 1e-6, MinRuns: 2, MaxRuns: 6, RoundSize: 2}
}

// TestAdaptiveTimeSampleRunIdentity pins the identity clause of the
// stratified contract: with the stopping rule pinned to exactly the
// fixed-N size (MinRuns = MaxRuns = Runs), AdaptiveTimeSample executes
// the same runs TimeSample would — same per-stratum labels, seed bases
// and run indices — so the two produce identical values per stratum.
func TestAdaptiveTimeSampleRunIdentity(t *testing.T) {
	e := stratifiedExperiment(1)
	e.Runs = 4
	cks := []int64{20, 40}
	fixed, err := e.TimeSample(cks)
	if err != nil {
		t.Fatal(err)
	}
	tgt := sampling.Target{MinRuns: e.Runs, MaxRuns: e.Runs, RoundSize: e.Runs}
	spaces, arm, err := e.AdaptiveTimeSample(cks, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if arm.Executed != e.Runs*len(cks) {
		t.Fatalf("pinned schedule executed %d runs, want %d", arm.Executed, e.Runs*len(cks))
	}
	if len(spaces) != len(fixed) {
		t.Fatalf("stratum count: adaptive %d, fixed %d", len(spaces), len(fixed))
	}
	for ci := range spaces {
		if spaces[ci].Label != fixed[ci].Label {
			t.Errorf("stratum %d label: adaptive %q, fixed %q", ci, spaces[ci].Label, fixed[ci].Label)
		}
		if len(spaces[ci].Values) != len(fixed[ci].Values) {
			t.Fatalf("stratum %d: adaptive %d values, fixed %d", ci, len(spaces[ci].Values), len(fixed[ci].Values))
		}
		for i := range spaces[ci].Values {
			if spaces[ci].Values[i] != fixed[ci].Values[i] {
				t.Errorf("stratum %d run %d: adaptive %v != fixed %v — run identity drifted",
					ci, i, spaces[ci].Values[i], fixed[ci].Values[i])
			}
		}
	}
}

// TestAdaptiveTimeSampleWalksOnce pins the strata's one checkpoint
// walk: with the schedule pinned to the fixed-N size and no cache, the
// adaptive strata warm one machine through the checkpoints exactly as
// TimeSample does, so the two simulate the same cycles — not one
// warm-up per stratum from a cold start.
func TestAdaptiveTimeSampleWalksOnce(t *testing.T) {
	e := stratifiedExperiment(1)
	e.Runs = 4
	cks := []int64{20, 40}
	fixed := simulated(t, func() error { _, err := e.TimeSample(cks); return err })
	tgt := sampling.Target{MinRuns: e.Runs, MaxRuns: e.Runs, RoundSize: e.Runs}
	adaptive := simulated(t, func() error { _, _, err := e.AdaptiveTimeSample(cks, tgt); return err })
	if adaptive != fixed {
		t.Errorf("adaptive strata simulated %d cycles, TimeSample %d", adaptive, fixed)
	}
}

// TestAdaptiveTimeSampleRestartsThePassedWalk resumes a multi-round
// schedule whose cache holds only stratum 0's first two rounds: the
// walk starts at stratum 1's checkpoint, so stratum 0's third round
// finds it past its own and restarts it from a cold start. The spaces
// are the cache-less run's.
func TestAdaptiveTimeSampleRestartsThePassedWalk(t *testing.T) {
	tgt := stratifiedTarget()
	cks := []int64{20, 40}
	e := stratifiedExperiment(1)
	jw, err := journal.CreateDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e.Resilience = core.Resilience{Journal: jw}
	want, _, err := e.AdaptiveTimeSample(cks, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := journal.Load(jw.Path())
	if err != nil {
		t.Fatal(err)
	}
	var first []journal.Record
	for _, r := range res.Records {
		if r.Status == journal.StatusOK && r.Experiment == "strat-test@20" && r.Index < 2*tgt.RoundSize {
			first = append(first, r)
		}
	}
	if len(first) != 2*tgt.RoundSize || len(want[0].Values) <= len(first) {
		t.Fatalf("fixture drifted: %d cached runs of stratum 0's %d", len(first), len(want[0].Values))
	}
	e.Resilience = core.Resilience{Cache: journal.NewCache(first)}
	got, _, err := e.AdaptiveTimeSample(cks, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a schedule that restarted its walk differs from the cache-less one")
	}
}

// TestAdaptiveTimeSampleWidthByteIdentical pins width independence for
// the stratified driver: a multi-round schedule (tiny relative-error
// target, small rounds) renders byte-identically at widths 1, 4 and
// NumCPU.
func TestAdaptiveTimeSampleWidthByteIdentical(t *testing.T) {
	tgt := stratifiedTarget()
	cks := []int64{20, 40}
	render := func(width int) []byte {
		e := stratifiedExperiment(width)
		spaces, arm, err := e.AdaptiveTimeSample(cks, tgt)
		if err != nil {
			t.Fatal(err)
		}
		return renderShape(spaces, oneArmReport(tgt, arm))
	}
	want := render(1)
	if !bytes.Contains(want, []byte("budget")) {
		t.Fatalf("fixture drifted: 1e-6 target should settle at the budget\n%s", want)
	}
	for _, width := range []int{4, runtime.NumCPU()} {
		if got := render(width); !bytes.Equal(got, want) {
			t.Errorf("stratified schedule differs at width %d\n got:\n%s\nwant:\n%s", width, got, want)
		}
	}
}

// decisionsByLabel counts the decision records of the journal at path
// by the label they are filed under.
func decisionsByLabel(t *testing.T, path string) map[string]int {
	t.Helper()
	res, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, r := range res.Records {
		if r.Status == journal.StatusDecision {
			n[r.Experiment]++
		}
	}
	return n
}

// TestAdaptiveTimeSampleFilesDecisionsPerStratum pins where a
// stratified barrier journals its decision: once under each stratum's
// label, one record a round, and under no label of the sample as a
// whole.
func TestAdaptiveTimeSampleFilesDecisionsPerStratum(t *testing.T) {
	e := stratifiedExperiment(1)
	jw, err := journal.CreateDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e.Resilience = core.Resilience{Journal: jw}
	_, arm, err := e.AdaptiveTimeSample([]int64{20, 40}, stratifiedTarget())
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"strat-test@20": arm.Rounds, "strat-test@40": arm.Rounds}
	if got := decisionsByLabel(t, jw.Path()); arm.Rounds < 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("decisions filed by label %v, want %v", got, want)
	}
}

// TestAdaptiveTimeSampleResumesLegacyJournal resumes from a journal
// written while a stratified round was split across strata by
// allocation: uneven strata, and decisions carrying that split under
// the joint label of the time, beside a decision of the later joint
// rule under its "@strata" label, whose next round is both strata's
// together. The runs replay, the decisions are not this rule's and are
// taken again, filed per stratum, and the outcome is byte-identical to
// a fresh run.
func TestAdaptiveTimeSampleResumesLegacyJournal(t *testing.T) {
	tgt := stratifiedTarget()
	cks := []int64{20, 40}
	e := stratifiedExperiment(1)
	fresh := t.TempDir()
	jw, err := journal.CreateDir(fresh)
	if err != nil {
		t.Fatal(err)
	}
	e.Resilience = core.Resilience{Journal: jw}
	spaces, arm, err := e.AdaptiveTimeSample(cks, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	want := renderShape(spaces, oneArmReport(tgt, arm))

	// The legacy schedule: a two-run pilot a stratum, then rounds of two
	// runs in all (RoundSize was the whole arm's step), split 2:0 and
	// 1:1.
	res, err := journal.Load(jw.Path())
	if err != nil {
		t.Fatal(err)
	}
	var legacy []journal.Record
	for _, r := range res.Records {
		if r.Status == journal.StatusOK &&
			(r.Experiment == "strat-test@20" && r.Index < 5 || r.Experiment == "strat-test@40" && r.Index < 3) {
			legacy = append(legacy, r)
		}
	}
	if len(legacy) != 8 {
		t.Fatalf("fresh journal holds %d of the legacy runs, want 8", len(legacy))
	}
	cfgHash := journal.ConfigHash(e.Config)
	for round, payload := range []string{
		`{"round":0,"n":4,"action":"continue","rel_pct":3.1,"needed":40,"next":2,"alloc":[2,0]}`,
		`{"round":1,"n":6,"action":"continue","rel_pct":2.9,"needed":42,"next":2,"alloc":[1,1]}`,
	} {
		legacy = append(legacy, journal.Record{
			Key:    sampling.DecisionKey("strat-test@strat", cfgHash, e.SeedBase, round),
			Status: journal.StatusDecision, Result: json.RawMessage(payload),
		})
	}
	legacy = append(legacy, journal.Record{
		Key:    sampling.DecisionKey("strat-test@strata", cfgHash, e.SeedBase, 0),
		Status: journal.StatusDecision,
		Result: json.RawMessage(`{"round":0,"n":4,"action":"continue","rel_pct":3.1,"needed":40,"next":4}`),
	})
	dir := t.TempDir()
	lw, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range legacy {
		if err := lw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}

	jc, jw2, err := journal.OpenDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	e.Resilience = core.Resilience{Journal: jw2, Cache: jc}
	rspaces, rarm, err := e.AdaptiveTimeSample(cks, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := renderShape(rspaces, oneArmReport(tgt, rarm)); !bytes.Equal(got, want) {
		t.Errorf("resume from a legacy journal differs from a fresh run\n got:\n%s\nwant:\n%s", got, want)
	}
	rederived := map[string]int{"strat-test@strat": 2, "strat-test@strata": 1,
		"strat-test@20": rarm.Rounds, "strat-test@40": rarm.Rounds}
	if got := decisionsByLabel(t, jw2.Path()); !reflect.DeepEqual(got, rederived) {
		t.Errorf("resumed journal's decisions by label %v, want %v", got, rederived)
	}
}
