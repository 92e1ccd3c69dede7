// Digest-stream orchestration tests: the divergence observatory's
// core contract — byte-identical digest streams at every fleet width
// and across kill-and-resume.
package core_test

import (
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"varsim/internal/core"
	"varsim/internal/digest"
	"varsim/internal/fleet"
	"varsim/internal/journal"
)

// digTickNS matches the machine-level digest tests' cadence: small
// enough that a 20-transaction window records a useful stream.
const digTickNS = 20_000

func digestExperiment(workers int) core.Experiment {
	e := resumeExperiment(workers)
	e.Label = "digest-test"
	return e
}

// digestPlan is e's plan recording digests at digTickNS.
func digestPlan(e core.Experiment) core.BranchPlan {
	p := e.BranchPlan()
	p.DigestIntervalNS = digTickNS
	return p
}

// runDigested branches e's digested plan.
func runDigested(e core.Experiment) (core.Branched, error) {
	return e.Branch(digestPlan(e))
}

// digestBytes canonicalizes b's digest streams, index-aligned with its
// runs, for byte-identity checks.
func digestBytes(t *testing.T, b core.Branched) []byte {
	t.Helper()
	series := make([]digest.Series, len(b.Runs))
	for j, r := range b.Runs {
		series[j] = r.Digests
	}
	raw, err := json.Marshal(series)
	if err != nil {
		t.Fatalf("marshal digests: %v", err)
	}
	return raw
}

// TestDigestsByteIdenticalAcrossWidths pins the headline property:
// the digest streams, like the space itself, are a pure function of
// (config, seeds) — the fleet width is invisible.
func TestDigestsByteIdenticalAcrossWidths(t *testing.T) {
	base := digestExperiment(1)
	b, err := runDigested(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Runs) != base.Runs {
		t.Fatalf("got %d runs, want %d", len(b.Runs), base.Runs)
	}
	for i, r := range b.Runs {
		if r.Digests.Len() == 0 {
			t.Fatalf("run %d recorded no digest samples", i)
		}
	}
	wantSpace := renderSpace(b.Space())
	wantDig := digestBytes(t, b)

	for _, width := range []int{4, runtime.NumCPU()} {
		t.Run(label(width), func(t *testing.T) {
			b2, err := runDigested(digestExperiment(width))
			if err != nil {
				t.Fatal(err)
			}
			if got := renderSpace(b2.Space()); string(got) != string(wantSpace) {
				t.Errorf("space differs at width %d", width)
			}
			if got := digestBytes(t, b2); string(got) != string(wantDig) {
				t.Errorf("digest streams differ at width %d", width)
			}
		})
	}
}

// TestDigestedKillAndResume drains a digested space mid-flight, then
// resumes from its journal: the resumed space AND every digest stream
// must be byte-identical to an uninterrupted run. This is the property
// that makes a post-hoc diff trustworthy across -resume.
func TestDigestedKillAndResume(t *testing.T) {
	want, err := runDigested(digestExperiment(1))
	if err != nil {
		t.Fatal(err)
	}
	wantSpace := renderSpace(want.Space())
	wantDig := digestBytes(t, want)

	dir := t.TempDir()
	jw, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := digestExperiment(4)
	e.Resilience = drainAfter(2, core.Resilience{Journal: jw})
	part, err := runDigested(e)
	var inc *fleet.Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("drained run returned %v, want *fleet.Incomplete", err)
	}
	if !part.Space().Incomplete() {
		t.Fatal("drained space not marked incomplete")
	}
	if len(part.Runs) != e.Runs {
		t.Fatalf("drained runs lost index alignment: %d runs, want %d", len(part.Runs), e.Runs)
	}
	for _, i := range part.Missing {
		if part.Runs[i].Digests.Len() != 0 {
			t.Fatalf("missing run %d has a non-empty digest stream", i)
		}
	}
	// No jw.Close(): a killed process never closes its journal.

	jc, jw2, err := journal.OpenDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.Runs; i++ {
		if k := e.RunKey(i); jc.Has(k) != jc.HasDigest(k) {
			t.Fatalf("run %d: journaled run record %v, digest record %v", i, jc.Has(k), jc.HasDigest(k))
		}
	}
	r := digestExperiment(4)
	r.Resilience = core.Resilience{Journal: jw2, Cache: jc}
	full, err := runDigested(r)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if cerr := jw2.Close(); cerr != nil {
		t.Fatalf("resume journal close: %v", cerr)
	}
	if got := renderSpace(full.Space()); string(got) != string(wantSpace) {
		t.Errorf("resumed space differs from uninterrupted run")
	}
	if got := digestBytes(t, full); string(got) != string(wantDig) {
		t.Errorf("resumed digest streams differ from uninterrupted run")
	}
}

// TestCachedDigestsFastPath pins the full-journal fast path of a
// digested plan and its refusal cases: a complete digested journal
// replays space and streams without simulating, while a journal at
// another cadence or without digests (from a plain RunSpace) forces a
// re-run rather than serving half an answer.
func TestCachedDigestsFastPath(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := digestExperiment(4)
	e.Resilience = core.Resilience{Journal: jw}
	want, err := runDigested(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	jc, jw2, err := journal.OpenDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer jw2.Close()
	r := digestExperiment(4)
	r.Resilience = core.Resilience{Journal: jw2, Cache: jc}
	cb, cycles := replayDigests(t, r, digestPlan(r))
	if cycles != 0 {
		t.Fatalf("a full digested journal simulated %d cycles, want 0", cycles)
	}
	if got := renderSpace(cb.Space()); string(got) != string(renderSpace(want.Space())) {
		t.Error("cached space differs from original run")
	}
	if got := digestBytes(t, cb); string(got) != string(digestBytes(t, want)) {
		t.Error("cached digest streams differ from original run")
	}

	// Changing the cadence invalidates the cache — half-interval
	// streams must not replay under a different contract.
	r2 := digestExperiment(4)
	r2.Resilience = core.Resilience{Cache: jc}
	p2 := digestPlan(r2)
	p2.DigestIntervalNS = digTickNS * 2
	if _, cycles := replayDigests(t, r2, p2); cycles == 0 {
		t.Error("cache hit despite a digest-cadence mismatch")
	}

	// A digest-less journal (plain RunSpace) must miss entirely.
	dir2 := t.TempDir()
	jw3, err := journal.CreateDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	plain := digestExperiment(4)
	plain.Resilience = core.Resilience{Journal: jw3}
	if _, err := plain.RunSpace(); err != nil {
		t.Fatal(err)
	}
	if err := jw3.Close(); err != nil {
		t.Fatal(err)
	}
	jc2, jw4, err := journal.OpenDir(dir2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer jw4.Close()
	r3 := digestExperiment(4)
	r3.Resilience = core.Resilience{Cache: jc2}
	if _, cycles := replayDigests(t, r3, digestPlan(r3)); cycles == 0 {
		t.Error("digest-less journal served a digested plan")
	}
}

// replayDigests branches plan p of e and returns the outcome with the
// cycles it simulated: 0 when the store served every run.
func replayDigests(t *testing.T, e core.Experiment, p core.BranchPlan) (b core.Branched, cycles int64) {
	t.Helper()
	cycles = simulated(t, func() (err error) { b, err = e.Branch(p); return err })
	return b, cycles
}

// TestBranchObservedCombinesTracesAndDigests pins the one-pass
// observatory: traces match a trace-only plan exactly (digesting must not
// perturb the trajectory) and the digest streams match a digest-only
// plan's.
func TestBranchObservedCombinesTracesAndDigests(t *testing.T) {
	e := digestExperiment(4)
	base, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	plan := digestPlan(e)
	plan.Workers, plan.Trace = 4, true
	b, err := core.Branch(base, plan)
	if err != nil {
		t.Fatal(err)
	}
	sp := b.Space()
	plan.DigestIntervalNS = 0
	bT, err := core.Branch(base, plan)
	if err != nil {
		t.Fatal(err)
	}
	spT := bT.Space()
	for i := range sp.Values {
		if sp.Values[i] != spT.Values[i] {
			t.Fatalf("run %d: observed CPT %v differs from traced %v", i, sp.Values[i], spT.Values[i])
		}
		if n, nT := len(b.Runs[i].Events), len(bT.Runs[i].Events); n != nT {
			t.Fatalf("run %d: observed trace has %d events, traced %d", i, n, nT)
		}
	}
	want, err := runDigested(e)
	if err != nil {
		t.Fatal(err)
	}
	if string(digestBytes(t, b)) != string(digestBytes(t, want)) {
		t.Error("observed digest streams differ from a digest-only plan's")
	}
	plan.N, plan.Workers = 2, 1
	if zero, err := core.Branch(base, plan); err != nil {
		t.Fatal(err)
	} else {
		for i, r := range zero.Runs {
			if r.Digests.Len() != 0 {
				t.Errorf("interval 0 still recorded a digest stream in run %d", i)
			}
		}
	}
}
