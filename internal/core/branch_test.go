// Engine tests: core.Branch is the one fan-out, so whatever a plan
// captures, at whatever width, fresh, resumed, replayed or assembled
// from index ranges, it must produce the same runs and file the same
// journal records.
package core_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"varsim/internal/core"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
)

// journalRecords loads dir's journal as status+key -> payload. A key
// journaled twice (a run re-executed for the digest record it lacked)
// must agree with itself.
func journalRecords(t *testing.T, dir string) map[string]string {
	t.Helper()
	res, err := journal.Load(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	recs := make(map[string]string, len(res.Records))
	for _, r := range res.Records {
		k := r.Status + " " + r.Key.String()
		if prev, dup := recs[k]; dup && prev != string(r.Result) {
			t.Errorf("journal holds two different %s records", k)
		}
		recs[k] = string(r.Result)
	}
	return recs
}

// wantRecords is the record set a complete journaled pass of plan p
// over want's runs must leave behind: one ok record a run, plus one
// digest record a run when p captures digests.
func wantRecords(t *testing.T, e core.Experiment, p core.BranchPlan, want core.Branched) map[string]string {
	t.Helper()
	recs := map[string]string{}
	for i, r := range want.Runs {
		raw, err := json.Marshal(r.Result)
		if err != nil {
			t.Fatal(err)
		}
		recs[journal.StatusOK+" "+e.RunKey(i).String()] = string(raw)
		if p.DigestIntervalNS > 0 {
			drec, err := journal.DigestRecord(e.RunKey(i), r.Digests)
			if err != nil {
				t.Fatal(err)
			}
			recs[journal.StatusDigest+" "+e.RunKey(i).String()] = string(drec.Result)
		}
	}
	return recs
}

// sameOutcome asserts got is want: every run record (measurement, digest
// stream, trace events), the projections, and the rendered report.
func sameOutcome(t *testing.T, got, want core.Branched) {
	t.Helper()
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Error("run records differ")
	}
	if !reflect.DeepEqual(got.Space(), want.Space()) {
		t.Error("spaces differ")
	}
	if g, w := renderSpace(got.Space()), renderSpace(want.Space()); string(g) != string(w) {
		t.Errorf("rendered reports differ\n got:\n%s\nwant:\n%s", g, w)
	}
	if g, w := digestBytes(t, got), digestBytes(t, want); string(g) != string(w) {
		t.Error("digest series differ")
	}
}

func TestBranchEquivalence(t *testing.T) {
	e := resumeExperiment(1)
	base, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	n := e.Runs
	captures := []struct {
		name               string
		digestNS, sampleNS int64
		trace              bool
	}{
		{"none", 0, 0, false},
		{"digests", digTickNS, 0, false},
		{"trace", 0, 0, true},
		{"trace+digests", digTickNS, 0, true},
		{"samples+digests", digTickNS, digTickNS, false},
	}
	// journaled opens a fresh journal in dir (or resumes the one there)
	// and returns the plan wired to it.
	journaled := func(t *testing.T, p core.BranchPlan, dir string, resume bool) (core.BranchPlan, *journal.Writer) {
		t.Helper()
		var jw *journal.Writer
		var err error
		if resume {
			p.Resilience.Cache, jw, err = journal.OpenDir(dir, t.Logf)
		} else {
			jw, err = journal.CreateDir(dir)
		}
		if err != nil {
			t.Fatal(err)
		}
		p.Resilience.Journal = jw
		return p, jw
	}
	for _, c := range captures {
		plan := e.BranchPlan()
		plan.DigestIntervalNS, plan.SampleIntervalNS, plan.Trace = c.digestNS, c.sampleNS, c.trace
		want, err := core.Branch(base, plan)
		if err != nil {
			t.Fatal(err)
		}
		if s := want.Space().Summary(); s.N != n || s.Mean <= 0 {
			t.Fatalf("%s: bad space summary %+v", c.name, s)
		}
		for i, r := range want.Runs {
			if (r.Digests.Len() > 0) != (c.digestNS > 0) || (r.Series != nil && r.Series.Len() > 0) != (c.sampleNS > 0) || (len(r.Events) > 0) != c.trace {
				t.Fatalf("%s: run %d captured %d digest samples, series %v, %d events",
					c.name, i, r.Digests.Len(), r.Series != nil, len(r.Events))
			}
		}
		records := wantRecords(t, e, plan, want)
		for _, width := range []int{1, 4, runtime.NumCPU()} {
			plan.Workers = width
			name := fmt.Sprintf("%s/%s/", c.name, label(width))

			// One complete journaled pass serves two modes: the fresh
			// run, then a whole-range replay of what it journaled.
			dir := t.TempDir()
			t.Run(name+"fresh", func(t *testing.T) {
				p, jw := journaled(t, plan, dir, false)
				got, err := core.Branch(base, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := jw.Close(); err != nil {
					t.Fatal(err)
				}
				sameOutcome(t, got, want)
				if got := journalRecords(t, dir); !reflect.DeepEqual(got, records) {
					t.Errorf("journal holds %d records, want the %d of a complete pass", len(got), len(records))
				}
			})
			t.Run(name+"replay", func(t *testing.T) {
				p, jw := journaled(t, plan, dir, true)
				defer jw.Close()
				var got core.Branched
				cycles := simulated(t, func() (err error) { got, err = core.Branch(base, p); return err })
				// A traced or sampled plan re-runs over its own journal:
				// events and series are not journaled.
				if rerun := c.trace || c.sampleNS > 0; (cycles == 0) == rerun {
					t.Fatalf("replay over a complete journal simulated %d cycles for a %s plan", cycles, c.name)
				}
				sameOutcome(t, got, want)
			})
			t.Run(name+"resumed", func(t *testing.T) {
				dir := t.TempDir()
				p, _ := journaled(t, plan, dir, false)
				p.Resilience = drainAfter(2, p.Resilience)
				part, err := core.Branch(base, p)
				var inc *fleet.Incomplete
				if !errors.As(err, &inc) || len(part.Missing) == 0 || len(part.Runs) != n {
					t.Fatalf("drained pass returned %v with %d missing of %d runs", err, len(part.Missing), len(part.Runs))
				}
				if sp := part.Space(); len(sp.Values)+len(sp.Missing) != n || !sp.Incomplete() {
					t.Fatalf("partial space: %d values, %d missing of %d", len(sp.Values), len(sp.Missing), n)
				}
				// No Close: a killed process never closes its journal.
				p, jw := journaled(t, plan, dir, true)
				got, err := core.Branch(base, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := jw.Close(); err != nil {
					t.Fatal(err)
				}
				sameOutcome(t, got, want)
				if got := journalRecords(t, dir); !reflect.DeepEqual(got, records) {
					t.Errorf("resumed journal holds %d records, want the %d of a complete pass", len(got), len(records))
				}
			})
			t.Run(name+"ranges", func(t *testing.T) {
				dir := t.TempDir()
				p, jw := journaled(t, plan, dir, false)
				got := core.Branched{Label: p.Label}
				for _, r := range [][2]int{{0, 1}, {1, n / 2}, {n / 2, n}} {
					p.Lo, p.N = r[0], r[1]-r[0]
					b, err := core.Branch(base, p)
					if err != nil {
						t.Fatal(err)
					}
					if b.Lo != p.Lo || len(b.Runs) != p.N {
						t.Fatalf("range [%d,%d) came back as %d runs from %d", r[0], r[1], len(b.Runs), b.Lo)
					}
					got.Runs = append(got.Runs, b.Runs...)
				}
				if err := jw.Close(); err != nil {
					t.Fatal(err)
				}
				sameOutcome(t, got, want)
				if got := journalRecords(t, dir); !reflect.DeepEqual(got, records) {
					t.Errorf("journal assembled from ranges holds %d records, want the %d of a complete pass", len(got), len(records))
				}
			})
		}
	}
}

// TestReplayCountsOnlyMergedRecords pins journal.Stats.Hits — the "N
// replayed" of the heartbeat, /status and varsim_journal_replayed_total —
// to the records a resume actually merged: looking for a record, or
// finding half of what a plan captures, is not a replay.
func TestReplayCountsOnlyMergedRecords(t *testing.T) {
	e := resumeExperiment(4)
	e.Runs = 6
	base, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	// journal runs [0,k) of e's plan with digests every digestNS (none
	// at 0) and reopen the journal as a resume cache.
	plan := func(digestNS int64) core.BranchPlan {
		p := e.BranchPlan()
		p.DigestIntervalNS = digestNS
		return p
	}
	journalPrefix := func(digestNS int64, k int) (*journal.Cache, *journal.Writer) {
		dir := t.TempDir()
		jw, err := journal.CreateDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := plan(digestNS)
		p.N, p.Resilience = k, core.Resilience{Journal: jw}
		if _, err := core.Branch(base, p); err != nil {
			t.Fatal(err)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		jc, jw2, err := journal.OpenDir(dir, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jw2.Close() })
		return jc, jw2
	}
	hitsOf := func(run func() error) int64 {
		before := journal.ReadStats().Hits
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return journal.ReadStats().Hits - before
	}

	cases := []struct {
		name      string
		journalNS int64 // the digest cadence journaled...
		prefix    int   // ...over how many runs
		resumeNS  int64
		wantHits  int64
	}{
		{"partial resume merges the 3 journaled runs", 0, 3, 0, 3},
		{"finished experiment replays 6 run records", 0, 6, 0, 6},
		{"digests asked of a digest-less journal replay nothing", 0, 4, digTickNS, 0},
		{"digested partial resume merges 3 run + 3 digest records", digTickNS, 3, digTickNS, 6},
		{"finished digested experiment replays 6 + 6 records", digTickNS, 6, digTickNS, 12},
		{"plain resume over a digested journal reads only run records", digTickNS, 6, 0, 6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jc, jw := journalPrefix(c.journalNS, c.prefix)
			p := plan(c.resumeNS)
			p.Resilience = core.Resilience{Cache: jc, Journal: jw}
			if hits := hitsOf(func() error { _, err := e.Branch(p); return err }); hits != c.wantHits {
				t.Errorf("resume raised journal hits by %d, want %d", hits, c.wantHits)
			}
		})
	}
}

// TestTracedPlanRunsUnderResilience pins that a traced plan is a plan
// like any other: it journals run and digest records, feeds the
// precision observer, drains on Stop — and, because events are not
// journaled, a resume re-runs it rather than replaying, filing none of
// the records the journal already holds.
func TestTracedPlanRunsUnderResilience(t *testing.T) {
	e := digestExperiment(4)
	base, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	n := e.Runs
	plan := digestPlan(e)
	plan.Trace = true

	dir := t.TempDir()
	jw, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var log observeLog
	plan.Resilience = core.Resilience{Journal: jw, Observe: (&log).hook()}
	first, err := core.Branch(base, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if log.n != n {
		t.Errorf("observer saw %d runs, want %d", log.n, n)
	}
	jc, jw2, err := journal.OpenDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if got := countJournaled(t, dir, journal.StatusOK); got != n {
		t.Fatalf("traced pass journaled %d run records, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if !jc.HasDigest(e.RunKey(i)) {
			t.Fatalf("traced pass journaled no digest record for run %d", i)
		}
	}

	// Resume: nothing replays and every run executes again, but the
	// journal holds every run's records already, so none is appended —
	// by the traced plan, nor by a sampled one after it — and the
	// observer sees each run once.
	log = observeLog{}
	plan.Resilience = core.Resilience{Journal: jw2, Cache: jc, Observe: (&log).hook()}
	sampled := digestPlan(e)
	sampled.SampleIntervalNS, sampled.Resilience = digTickNS, plan.Resilience
	before := journal.ReadStats()
	cycles := machine.SimulatedCycles()
	again, err := core.Branch(base, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Branch(base, sampled); err != nil {
		t.Fatal(err)
	}
	if err := jw2.Close(); err != nil {
		t.Fatal(err)
	}
	after := journal.ReadStats()
	if after.Hits != before.Hits || machine.SimulatedCycles() == cycles {
		t.Errorf("traced and sampled resumes replayed %d records and simulated %d cycles; events and series are not journaled, so they must re-run",
			after.Hits-before.Hits, machine.SimulatedCycles()-cycles)
	}
	if got := after.Appended - before.Appended; got != 0 {
		t.Errorf("traced and sampled resumes appended %d records to a journal that held them all", got)
	}
	if log.n != n {
		t.Errorf("observer saw %d runs on resume, want %d", log.n, n)
	}
	sameOutcome(t, again, first)

	// Drain: Stop fires mid-flight, the partial outcome comes back with
	// the drain marker and only the settled runs are journaled.
	dir = t.TempDir()
	jw3, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan.Resilience = drainAfter(2, core.Resilience{Journal: jw3})
	part, err := core.Branch(base, plan)
	var inc *fleet.Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("drained traced pass returned %v, want *fleet.Incomplete", err)
	}
	if len(part.Missing) == 0 || !reflect.DeepEqual(part.Missing, inc.Missing) {
		t.Fatalf("drained traced pass lists missing %v, fleet %v", part.Missing, inc.Missing)
	}
	if err := jw3.Close(); err != nil {
		t.Fatal(err)
	}
	done := n - len(part.Missing)
	if recs := journalRecords(t, dir); len(recs) != 2*done {
		t.Errorf("drained traced pass journaled %d records, want %d run + %d digest", len(recs), done, done)
	}
	for _, i := range part.Missing {
		if r := part.Runs[i]; r.Events != nil || r.Digests.Len() != 0 || r.Result != (machine.Result{}) {
			t.Errorf("missing run %d holds a non-zero record", i)
		}
	}
}
