// Adaptive-schedule integration tests: the docs/SAMPLING.md
// determinism contract asserted over rendered report bytes — width
// independence, kill-and-resume with journaled decision replay,
// shuffled completion order, exactly-once observation, and recovery
// from a journal torn mid-decision-record. External test package so
// the spaces and arms render through internal/report.
package core_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/report"
	"varsim/internal/sampling"
)

// adaptiveTarget never converges on real perturbation noise (the
// relative-error target is far below the workload's CoV), so every
// arm runs to the MaxRuns budget: a deterministic 3-round schedule
// (pilot 4, then 4+4) whose run count the tests can rely on.
func adaptiveTarget() sampling.Target {
	return sampling.Target{RelErr: 1e-6, MinRuns: 4, MaxRuns: 12, RoundSize: 4}
}

// adaptiveExperiment mirrors resumeExperiment; Runs is the fixed-N
// baseline the runs-saved accounting compares against.
func adaptiveExperiment(workers int) core.Experiment {
	cfg := config.Default()
	cfg.NumCPUs = 4
	return core.Experiment{
		Label:        "adaptive-test",
		Config:       cfg,
		Workload:     "oltp",
		WorkloadSeed: 7,
		WarmupTxns:   20,
		MeasureTxns:  20,
		Runs:         20,
		SeedBase:     0xFEED,
		Workers:      workers,
	}
}

// oneArmReport is the report of a schedule that settles as one line.
func oneArmReport(t sampling.Target, arm sampling.Arm) sampling.Report {
	rep := sampling.Report{Target: t.Normalize(), Arms: []sampling.Arm{arm}}
	rep.Finalize()
	return rep
}

// renderShape is the byte-identity surface of an adaptive schedule's
// outcome: every space through WriteSpace, then the report through
// WriteSampling.
func renderShape(spaces []core.Space, rep sampling.Report) []byte {
	var buf bytes.Buffer
	for _, sp := range spaces {
		report.WriteSpace(&buf, sp)
	}
	report.WriteSampling(&buf, rep)
	return buf.Bytes()
}

// renderAdaptive is renderShape for a lone arm.
func renderAdaptive(sp core.Space, arm sampling.Arm, t sampling.Target) []byte {
	return renderShape([]core.Space{sp}, oneArmReport(t, arm))
}

// TestAdaptiveWidthByteIdentical pins the barrier contract: decisions
// depend only on the index-ordered merge of each round, so the
// adaptive schedule — which runs it executes and what it reports — is
// byte-identical at any fleet width.
func TestAdaptiveWidthByteIdentical(t *testing.T) {
	tgt := adaptiveTarget()
	base := adaptiveExperiment(1)
	sp, arm, err := base.AdaptiveSpace(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if arm.Status != sampling.StatusBudget || arm.Executed != 12 {
		t.Fatalf("fixture drifted: want a 12-run budget settle, got %d runs, status %s",
			arm.Executed, arm.Status)
	}
	want := renderAdaptive(sp, arm, tgt)

	for _, width := range []int{4, runtime.NumCPU()} {
		e := adaptiveExperiment(width)
		wsp, warm, err := e.AdaptiveSpace(tgt)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAdaptive(wsp, warm, tgt); !bytes.Equal(got, want) {
			t.Errorf("adaptive schedule differs at width %d\n got:\n%s\nwant:\n%s", width, got, want)
		}
	}
}

// TestAdaptiveRunIdentityMatchesFixedN pins the run-identity half of
// the contract: every run the adaptive schedule executes keeps the
// exact (experiment, config hash, derived seed, run index) identity
// the fixed-N path gives it, so the adaptive values are a prefix of
// the fixed-N space's values.
func TestAdaptiveRunIdentityMatchesFixedN(t *testing.T) {
	tgt := adaptiveTarget()
	e := adaptiveExperiment(4)
	sp, arm, err := e.AdaptiveSpace(tgt)
	if err != nil {
		t.Fatal(err)
	}
	f := adaptiveExperiment(4)
	f.Runs = arm.Executed
	fixed, err := f.RunSpace()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Values) != len(fixed.Values) {
		t.Fatalf("adaptive executed %d runs, fixed-N prefix has %d", len(sp.Values), len(fixed.Values))
	}
	for i := range sp.Values {
		if sp.Values[i] != fixed.Values[i] {
			t.Errorf("run %d: adaptive %v != fixed-N %v — identity drifted", i, sp.Values[i], fixed.Values[i])
		}
	}
}

// adaptiveShape is one shape of adaptive schedule — the engine under one
// of its barrier policies — run at a fleet width under a resilience
// bundle.
type adaptiveShape struct {
	name string
	// strata is how many decisions a report line files at each barrier:
	// one per stratum of a time sample, else one.
	strata int
	run    func(width int, res core.Resilience) ([]core.Space, sampling.Report, error)
}

// dramMatrix is the three-arm matrix with both kinds of pair: dram-800,
// its DRAM ten times slower, is decided against dram-80 at the pilot,
// while dram-80's identical twin under another label has the same
// samples (p = 1), so the twins run to the budget.
func dramMatrix(width int) []core.Experiment {
	es := make([]core.Experiment, 3)
	for i, supply := range []int64{80, 80, 800} {
		e := adaptiveExperiment(width)
		e.Label = [3]string{"dram-80", "dram-80-twin", "dram-800"}[i]
		e.Config.MemSupplyNS = supply
		es[i] = e
	}
	return es
}

// adaptiveShapes are the lone arm, the matrix and the two-checkpoint
// stratified time sample.
func adaptiveShapes() []adaptiveShape {
	cks := []int64{20, 40}
	return []adaptiveShape{
		{"lone-arm", 1, func(width int, res core.Resilience) ([]core.Space, sampling.Report, error) {
			e := adaptiveExperiment(width)
			e.Resilience = res
			sp, arm, err := e.AdaptiveSpace(adaptiveTarget())
			return []core.Space{sp}, oneArmReport(adaptiveTarget(), arm), err
		}},
		{"matrix", 1, func(width int, res core.Resilience) ([]core.Space, sampling.Report, error) {
			es := dramMatrix(width)
			for i := range es {
				es[i].Resilience = res
			}
			return core.AdaptiveMatrix(es, adaptiveTarget())
		}},
		{"stratified", len(cks), func(width int, res core.Resilience) ([]core.Space, sampling.Report, error) {
			e := stratifiedExperiment(width)
			e.Resilience = res
			spaces, arm, err := e.AdaptiveTimeSample(cks, stratifiedTarget())
			return spaces, oneArmReport(stratifiedTarget(), arm), err
		}},
	}
}

// countJournaled counts the distinct keys dir's journal holds records of the
// given status under.
func countJournaled(t *testing.T, dir, status string) int {
	t.Helper()
	n := 0
	for k := range journalRecords(t, dir) {
		if strings.HasPrefix(k, status+" ") {
			n++
		}
	}
	return n
}

// decisions sums the barrier decisions the shape's report took: each
// line's rounds, one decision a stratum.
func (s adaptiveShape) decisions(rep sampling.Report) int {
	n := 0
	for _, a := range rep.Arms {
		n += a.Rounds * s.strata
	}
	return n
}

// TestAdaptiveKillAndResumeByteIdentical drains every shape of adaptive
// schedule mid-flight and resumes it from the journal: the resumed
// schedule must replay the journaled runs and decisions and end
// byte-identical to an uninterrupted run. At width 1 the drain is
// exact, so it is pulled after every run count short of the whole
// schedule — inside every round and at every barrier, the matrix's
// "decided" settle among the decisions replayed; wider fleets finish
// what is in flight, so they are drained once, inside the pilot.
func TestAdaptiveKillAndResumeByteIdentical(t *testing.T) {
	for _, width := range []int{1, 4, runtime.NumCPU()} {
		t.Run(label(width), func(t *testing.T) {
			for _, shape := range adaptiveShapes() {
				t.Run(shape.name, func(t *testing.T) {
					bspaces, brep, err := shape.run(1, core.Resilience{})
					if err != nil {
						t.Fatal(err)
					}
					want := renderShape(bspaces, brep)
					if width != 1 {
						killAndResume(t, shape, width, 2, brep, want)
						return
					}
					decidedReplayed := 0
					for stop := 1; stop < brep.Executed; stop++ {
						decidedReplayed += killAndResume(t, shape, width, stop, brep, want)
					}
					if shape.name == "matrix" && decidedReplayed == 0 {
						t.Error("no resume replayed a decided settle: the matrix's replay-first check never ran")
					}
				})
			}
		})
	}
}

// killAndResume drains the shape after stop settled runs, resumes it
// from the journal and holds the outcome to want, the uninterrupted
// run's bytes (whose report is base). It returns how many of base's
// "decided" settles the resume found journaled.
func killAndResume(t *testing.T, shape adaptiveShape, width, stop int, base sampling.Report, want []byte) int {
	t.Helper()
	dir := t.TempDir()
	jw, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	pspaces, prep, err := shape.run(width, drainAfter(stop, core.Resilience{Journal: jw}))
	var inc *fleet.Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("width %d, stop %d: drained run returned %v, want *fleet.Incomplete", width, stop, err)
	}
	if !prep.Incomplete {
		t.Fatalf("width %d, stop %d: drained report is not marked incomplete: %+v", width, stop, prep.Arms)
	}
	if got := renderShape(pspaces, prep); !bytes.Contains(got, []byte("INCOMPLETE")) {
		t.Fatalf("width %d, stop %d: partial report missing INCOMPLETE banner:\n%s", width, stop, got)
	}
	if jerr := jw.Err(); jerr != nil {
		t.Fatalf("journal writer failed during drain: %v", jerr)
	}
	// No jw.Close(): a killed process never closes its journal.

	jc, jw2, err := journal.OpenDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if n := countJournaled(t, dir, journal.StatusOK); n != prep.Executed {
		t.Fatalf("width %d, stop %d: journal replayed %d run records, drained run settled %d", width, stop, n, prep.Executed)
	}
	decided := 0
	for _, a := range base.Arms {
		// A decided arm's last decision is its settle.
		key := sampling.DecisionKey(a.Experiment, a.ConfigHash, adaptiveExperiment(1).SeedBase, a.Rounds-1)
		if _, ok := jc.Decision(key); ok && a.Status == sampling.StatusDecided {
			decided++
		}
	}
	fspaces, frep, err := shape.run(width, core.Resilience{Journal: jw2, Cache: jc})
	if err != nil {
		t.Fatalf("width %d, stop %d: resume failed: %v", width, stop, err)
	}
	if cerr := jw2.Close(); cerr != nil {
		t.Fatalf("resume journal close: %v", cerr)
	}
	if got := renderShape(fspaces, frep); !bytes.Equal(got, want) {
		t.Errorf("width %d, stop %d: resumed run differs from uninterrupted run\n got:\n%s\nwant:\n%s", width, stop, got, want)
	}
	// The finished journal carries one decision per arm a barrier; a
	// second resume replays the schedule without running anything.
	_, jw3, err := journal.OpenDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer jw3.Close()
	if n := countJournaled(t, dir, journal.StatusDecision); n != shape.decisions(frep) {
		t.Errorf("width %d, stop %d: journal holds %d decisions, schedule took %d", width, stop, n, shape.decisions(frep))
	}
	if n := countJournaled(t, dir, journal.StatusOK); n != frep.Executed {
		t.Errorf("width %d, stop %d: journal holds %d run records, schedule executed %d", width, stop, n, frep.Executed)
	}
	return decided
}

// TestAdaptiveShuffledCompletionByteIdentical shuffles host completion
// order — the observer holds the worker of every even-indexed run, so
// the odd ones settle ahead of them — and asserts the adaptive schedule
// still renders byte-identically: decisions read the index-ordered
// merge, never arrival order.
func TestAdaptiveShuffledCompletionByteIdentical(t *testing.T) {
	tgt := adaptiveTarget()
	clean := adaptiveExperiment(4)
	csp, carm, err := clean.AdaptiveSpace(tgt)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAdaptive(csp, carm, tgt)

	e := adaptiveExperiment(4)
	e.Resilience = core.Resilience{Observe: func(k journal.Key, _ machine.Result) {
		if k.Index%2 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}}
	sp, arm, err := e.AdaptiveSpace(tgt)
	if err != nil {
		t.Fatalf("shuffled adaptive run failed: %v", err)
	}
	if got := renderAdaptive(sp, arm, tgt); !bytes.Equal(got, want) {
		t.Errorf("shuffled adaptive run differs from clean run\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestAdaptiveResumeObservesExactlyOnce is the regression test for the
// precision-tracker double count: when a resumed journal overlaps the
// round the drain interrupted, the resubmitted round replays some runs
// from the cache while executing the rest — and without the
// ObserveOnce guard the overlap was observed twice (once by the round
// replay, once by the per-run cache hit). Every run key must reach the
// observer exactly once across the whole resume.
func TestAdaptiveResumeObservesExactlyOnce(t *testing.T) {
	tgt := adaptiveTarget()
	dir := t.TempDir()
	jw, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := adaptiveExperiment(4)
	e.Resilience = drainAfter(2, core.Resilience{Journal: jw})
	_, _, err = e.AdaptiveSpace(tgt)
	var inc *fleet.Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("drained adaptive run returned %v, want *fleet.Incomplete", err)
	}

	jc, jw2, err := journal.OpenDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer jw2.Close()
	var mu sync.Mutex
	seen := map[journal.Key]int{}
	r := adaptiveExperiment(4)
	r.Resilience = core.Resilience{
		Journal: jw2, Cache: jc,
		Observe: func(k journal.Key, _ machine.Result) {
			mu.Lock()
			seen[k]++
			mu.Unlock()
		},
	}
	_, arm, err := r.AdaptiveSpace(tgt)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if len(seen) != arm.Executed {
		t.Errorf("observer saw %d distinct keys, schedule executed %d runs", len(seen), arm.Executed)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("key %+v observed %d times, want exactly once", k, n)
		}
	}
}

// TestAdaptiveResumeTornDecisionRecord tears the journal mid-way
// through its final record — the settling decision — and resumes: the
// recovery pass must drop the torn line, the driver must re-derive the
// lost decision from the replayed values, and the result must stay
// byte-identical to the uninterrupted run, in every shape.
func TestAdaptiveResumeTornDecisionRecord(t *testing.T) {
	for _, shape := range adaptiveShapes() {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			jw, err := journal.CreateDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			spaces, rep, err := shape.run(4, core.Resilience{Journal: jw})
			if err != nil {
				t.Fatal(err)
			}
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			want := renderShape(spaces, rep)

			// Tear the file inside its last record. The final append is the
			// settling barrier decision, so the truncation simulates a crash
			// mid-decision-write.
			path := filepath.Join(dir, journal.FileName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
				t.Fatal(err)
			}

			jc, jw2, err := journal.OpenDir(dir, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			defer jw2.Close()
			if n := countJournaled(t, dir, journal.StatusDecision); n >= shape.decisions(rep) {
				t.Fatalf("truncation did not tear a decision: %d decisions survive of %d", n, shape.decisions(rep))
			}
			fspaces, frep, err := shape.run(4, core.Resilience{Journal: jw2, Cache: jc})
			if err != nil {
				t.Fatalf("resume after torn decision failed: %v", err)
			}
			if got := renderShape(fspaces, frep); !bytes.Equal(got, want) {
				t.Errorf("resume after torn decision differs from uninterrupted run\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestAdaptiveMatrixWidthAndDecidedDeterminism runs the three-arm DRAM
// matrix and pins both halves of the matrix contract: the arms settle
// on their pair verdicts — dram-800 decided at the pilot, the twins,
// which cannot be told apart, at the budget — and the whole report
// renders byte-identically at every width.
func TestAdaptiveMatrixWidthAndDecidedDeterminism(t *testing.T) {
	tgt := adaptiveTarget()
	spaces, rep, err := core.AdaptiveMatrix(dramMatrix(1), tgt)
	if err != nil {
		t.Fatal(err)
	}
	want := renderShape(spaces, rep)
	for i, w := range []struct {
		runs   int
		status string
	}{{12, sampling.StatusBudget}, {12, sampling.StatusBudget}, {4, sampling.StatusDecided}} {
		if a := rep.Arms[i]; a.Executed != w.runs || a.Status != w.status {
			t.Errorf("arm %s: %d runs, status %s; want %d runs, %s", a.Experiment, a.Executed, a.Status, w.runs, w.status)
		}
	}
	for _, width := range []int{4, runtime.NumCPU()} {
		wspaces, wrep, err := core.AdaptiveMatrix(dramMatrix(width), tgt)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderShape(wspaces, wrep); !bytes.Equal(got, want) {
			t.Errorf("matrix differs at width %d\n got:\n%s\nwant:\n%s", width, got, want)
		}
	}
}

// TestAdaptiveMatrixArmsSpendIndependently pins the budget rule: there
// is none across arms. Three copies of one configuration cannot
// separate, the relative-error target is unreachable, so each arm
// spends its own MaxRuns — 36 runs where a budget shared at the sum of
// the fixed-N baselines (3 x 4) would have stopped the matrix after the
// pilot.
func TestAdaptiveMatrixArmsSpendIndependently(t *testing.T) {
	var es []core.Experiment
	for _, name := range []string{"a", "b", "c"} {
		e := adaptiveExperiment(4)
		e.Label, e.Runs = name, 4
		es = append(es, e)
	}
	_, rep, err := core.AdaptiveMatrix(es, adaptiveTarget())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 36 {
		t.Errorf("matrix executed %d runs, want 3 arms x MaxRuns 12 = 36", rep.Executed)
	}
	for _, a := range rep.Arms {
		if a.Executed != 12 || a.Status != sampling.StatusBudget {
			t.Errorf("arm %s: %d runs, status %s; want 12 runs settled at its own budget", a.Experiment, a.Executed, a.Status)
		}
	}
}
