// Run-store tests: a Resilience.Cache is where every settled run is
// filed, so whatever asks for a run twice — a second plan, a time
// sample, a concurrent Branch — replays it, simulates nothing and
// observes it once.
package core_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"varsim/internal/core"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
)

// simulated returns the simulated cycles run advanced the process by.
func simulated(t *testing.T, run func() error) int64 {
	t.Helper()
	before := machine.SimulatedCycles()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return machine.SimulatedCycles() - before
}

// TestTimeSampleReplaysBeforeWarming pins TimeSample's replay-first
// walk: a cache that covers every stratum warms and runs nothing and
// returns the same spaces, and one that covers only some strata still
// returns exactly the cache-less spaces — the walking machine goes
// straight to the first stratum that must execute, and past the ones
// that replay.
func TestTimeSampleReplaysBeforeWarming(t *testing.T) {
	e := stratifiedExperiment(1)
	e.Runs = 3
	cks := []int64{10, 20, 30, 40}
	want, err := e.TimeSample(cks)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	jw, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e.Resilience = core.Resilience{Journal: jw, Cache: journal.NewCache(nil)}
	if _, err := e.TimeSample(cks); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	var got []core.Space
	e.Resilience.Journal = nil
	if c := simulated(t, func() (err error) { got, err = e.TimeSample(cks); return err }); c != 0 {
		t.Errorf("a fully covered time sample simulated %d cycles, want 0", c)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a fully covered time sample replayed different spaces")
	}

	// Cover strata 0 and 2 only: stratum 1 warms the walking machine
	// straight to its checkpoint, stratum 3 walks on past stratum 2's.
	res, err := journal.Load(jw.Path())
	if err != nil {
		t.Fatal(err)
	}
	var some []journal.Record
	for _, r := range res.Records {
		if r.Experiment == "strat-test@10" || r.Experiment == "strat-test@30" {
			some = append(some, r)
		}
	}
	if len(some) != 2*e.Runs {
		t.Fatalf("journal holds %d records of strata 0 and 2, want %d", len(some), 2*e.Runs)
	}
	e.Resilience.Cache = journal.NewCache(some)
	if c := simulated(t, func() (err error) { got, err = e.TimeSample(cks); return err }); c == 0 {
		t.Error("a partly covered time sample simulated nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a partly covered time sample differs from the cache-less one")
	}
}

// TestBranchSharesCache runs two width-4 Branch calls of one plan
// concurrently over one cache: both return the cache-less outcome, the
// observer sees each run once however the two calls interleave, nothing
// counts as a journal replay, and a third call replays every run without
// simulating.
func TestBranchSharesCache(t *testing.T) {
	e := resumeExperiment(4)
	base, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	plan := e.BranchPlan()
	want, err := core.Branch(base, plan) // also freezes base for the concurrent calls
	if err != nil {
		t.Fatal(err)
	}

	var log observeLog
	plan.Resilience = core.Resilience{Cache: journal.NewCache(nil), Observe: (&log).hook()}
	hits := journal.ReadStats().Hits
	var wg sync.WaitGroup
	got := make([]core.Branched, 2)
	errs := make([]error, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = core.Branch(base, plan)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameOutcome(t, got[i], want)
	}
	if log.n != e.Runs || len(log.byIx) != e.Runs {
		t.Errorf("observer saw %d calls over %d runs, want %d runs once each", log.n, len(log.byIx), e.Runs)
	}

	var again core.Branched
	if c := simulated(t, func() (err error) { again, err = core.Branch(base, plan); return err }); c != 0 {
		t.Errorf("a third call over a filled cache simulated %d cycles, want 0", c)
	}
	sameOutcome(t, again, want)
	if log.n != e.Runs {
		t.Errorf("replays fed the observer %d more times", log.n-e.Runs)
	}
	if d := journal.ReadStats().Hits - hits; d != 0 {
		t.Errorf("in-process reuse counted %d journal replays, want 0", d)
	}
}

// TestBranchReadsTheStoreFirst covers runs {0, 2, 4} of 6: Branch
// observes those three in index order before the fleet is given a job,
// hands the fleet only 1, 3 and 5, and returns exactly the cache-less
// outcome. Each observation is logged with the fleet jobs handed out so
// far, read from fleet.Read.
func TestBranchReadsTheStoreFirst(t *testing.T) {
	e := resumeExperiment(4)
	e.Runs = 6
	base, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	plan := e.BranchPlan()
	want, err := core.Branch(base, plan)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	jw, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := plan
	p.Resilience = core.Resilience{Journal: jw}
	if _, err := core.Branch(base, p); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := journal.Load(jw.Path())
	if err != nil {
		t.Fatal(err)
	}
	var even []journal.Record
	for _, r := range res.Records {
		if r.Index%2 == 0 {
			even = append(even, r)
		}
	}

	var mu sync.Mutex
	var events []string
	before := fleet.Read()
	p.Resilience = core.Resilience{
		Cache: journal.NewCache(even),
		Observe: func(k journal.Key, _ machine.Result) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, fmt.Sprintf("observe %d after %d jobs", k.Index, fleet.Read().JobsTotal-before.JobsTotal))
		},
	}
	got, err := core.Branch(base, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a partly covered plan's outcome differs from the cache-less one")
	}
	if d := fleet.Read().JobsDone - before.JobsDone; d != 3 {
		t.Errorf("the fleet ran %d jobs, want 3", d)
	}
	if head := []string{"observe 0 after 0 jobs", "observe 2 after 0 jobs", "observe 4 after 0 jobs"}; len(events) < 3 || !reflect.DeepEqual(events[:3], head) {
		t.Fatalf("events %q, want them to open with %q", events, head)
	}
	live := events[3:]
	sort.Strings(live)
	if w := []string{"observe 1 after 3 jobs", "observe 3 after 3 jobs", "observe 5 after 3 jobs"}; !reflect.DeepEqual(live, w) {
		t.Errorf("live runs observed %q, want %q", live, w)
	}
}
