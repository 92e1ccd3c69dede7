package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/obs"
)

// open opens a session over f with stderr captured.
func open(t *testing.T, f Flags) (*Session, *bytes.Buffer) {
	t.Helper()
	var stderr bytes.Buffer
	s, err := Open(&f, Options{
		Tool: "tool", Experiments: []string{"exp"}, ResumeArgs: " exp", Stderr: &stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, &stderr
}

func experiment(res core.Resilience) core.Experiment {
	cfg := config.Default()
	cfg.NumCPUs = 4
	return core.Experiment{
		Label: "exp", Config: cfg, Workload: "oltp", WorkloadSeed: 7,
		WarmupTxns: 20, MeasureTxns: 20, Runs: 3, SeedBase: 0xFEED,
		Resilience: res,
	}
}

// record is a well-formed journal record: appending it fails only when
// the writer cannot take it.
var record = journal.Record{
	Key: journal.Key{Experiment: "exp", ConfigHash: "h"}, Status: journal.StatusOK, Result: json.RawMessage(`{}`),
}

func TestRegisterDefinesTheEightFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"cpuprofile", "http", "j", "journal", "manifest", "memprofile", "resume", "trace"}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

func TestJournalThenResumeReplaysEveryRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	var first, second core.Space

	s, _ := open(t, Flags{Journal: dir})
	ok := s.Run("exp", func() (err error) {
		first, err = experiment(s.Resilience).RunSpace()
		return err
	})
	if code := s.Close(); !ok || code != 0 {
		t.Fatalf("journaled run: ok=%v exit=%d", ok, code)
	}

	s, _ = open(t, Flags{Resume: dir})
	e := experiment(s.Resilience)
	for i := 0; i < e.Runs; i++ {
		if !s.Resilience.Cache.Has(e.RunKey(i)) {
			t.Errorf("run %d is not in the resume cache", i)
		}
	}
	ok = s.Run("exp", func() (err error) {
		second, err = e.RunSpace()
		return err
	})
	if code := s.Close(); !ok || code != 0 {
		t.Fatalf("resumed run: ok=%v exit=%d", ok, code)
	}
	if !reflect.DeepEqual(first.Values, second.Values) {
		t.Errorf("resumed values %v, want %v", second.Values, first.Values)
	}
	// Every run replayed: the resume appended nothing.
	res, err := journal.Load(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != e.Runs {
		t.Errorf("journal holds %d records after the resume, want %d", len(res.Records), e.Runs)
	}
}

func TestDrainReachesResilienceStop(t *testing.T) {
	s, stderr := open(t, Flags{})
	s.Drain()
	s.Drain() // idempotent
	select {
	case <-s.Resilience.Stop:
	default:
		t.Fatal("Drain did not close Resilience.Stop")
	}
	if s.Run("exp", func() error { t.Error("ran after a drain"); return nil }) {
		t.Error("Run reported go-on after a drain")
	}
	if code := s.Close(); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "re-run with -journal") {
		t.Errorf("no journal-less hint in %q", stderr.String())
	}
}

func TestIncompleteIsADrainAnyOtherErrorAFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	s, stderr := open(t, Flags{Journal: dir})
	inc := fmt.Errorf("space: %w", &fleet.Incomplete{Done: 1, Total: 3, Missing: []int{1, 2}})
	if s.Run("exp", func() error { return inc }) {
		t.Error("Run reported go-on after a drain")
	}
	if st := s.fleet.Status(); st.Done != 1 || st.Failed != 0 || st.Experiments[0].State != obs.StateDrained {
		t.Errorf("progress after a drain = %+v, want 1 of 1 done, drained, none failed", st)
	}
	if code := s.Close(); code != 1 {
		t.Errorf("drained exit = %d, want 1", code)
	}
	if want := "tool: run incomplete; resume with: tool -resume " + dir + " exp\n"; !strings.HasSuffix(stderr.String(), want) {
		t.Errorf("stderr %q does not end with the hint %q", stderr.String(), want)
	}

	s, stderr = open(t, Flags{Journal: dir})
	if s.Run("exp", func() error { return errors.New("boom") }) {
		t.Error("Run reported go-on after a failure")
	}
	if st := s.fleet.Status(); st.Total != 1 || st.Done != 1 || st.Failed != 1 {
		t.Errorf("progress after a failure = %+v, want 1 of 1 done, failed", st)
	}
	if code := s.Close(); code != 1 {
		t.Errorf("failed exit = %d, want 1", code)
	}
	if out := stderr.String(); !strings.Contains(out, "exp: boom") || strings.Contains(out, "resume with") {
		t.Errorf("failure stderr = %q", out)
	}
}

func TestManifestWrittenAfterJournalClosed(t *testing.T) {
	dir := t.TempDir()
	man := filepath.Join(dir, "m.json")
	s, _ := open(t, Flags{Journal: dir, Manifest: man})
	s.Run("exp", func() error { return nil })
	if code := s.Close(); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if err := s.Resilience.Journal.Append(record); err == nil {
		t.Error("journal still accepts appends after Close")
	}
	b, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "tool" || len(m.Experiments) != 1 || m.Experiments[0].Name != "exp" || m.Incomplete {
		t.Errorf("manifest = %+v", m)
	}

	// A manifest that cannot be written fails the run, after the journal
	// has been closed all the same.
	s, stderr := open(t, Flags{Journal: dir, Manifest: filepath.Join(dir, "missing", "m.json")})
	if code := s.Close(); code != 1 {
		t.Errorf("unwritable manifest: exit = %d, want 1", code)
	}
	if err := s.Resilience.Journal.Append(record); err == nil {
		t.Error("journal left open when the manifest failed")
	}
	if !strings.Contains(stderr.String(), "manifest: ") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestManifestRowsAreTheLedgers: after a done, a failed and a drained
// experiment, the manifest's rows are the ledger's rows of every
// experiment that started, field for field, and its simulated-cycle
// total is the ledger's.
func TestManifestRowsAreTheLedgers(t *testing.T) {
	man := filepath.Join(t.TempDir(), "m.json")
	var stderr bytes.Buffer
	s, err := Open(&Flags{Manifest: man}, Options{
		Tool: "tool", Experiments: []string{"done", "failed", "drained", "never"}, Stderr: &stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run("done", func() error {
		_, err := experiment(s.Resilience).RunSpace()
		return err
	})
	s.Run("failed", func() error { return errors.New("boom") })
	s.Run("drained", func() error { return &fleet.Incomplete{Done: 1, Total: 3, Missing: []int{1, 2}} })
	if code := s.Close(); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, stderr.String())
	}
	st := s.fleet.Status()

	b, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var want []obs.ExperimentStatus
	for _, e := range st.Experiments {
		if e.State != obs.StatePending {
			want = append(want, e)
		}
	}
	if !reflect.DeepEqual(m.Experiments, want) {
		t.Fatalf("manifest rows\n%+v\nwant the ledger's\n%+v", m.Experiments, want)
	}
	var states []string
	for _, e := range m.Experiments {
		states = append(states, e.State)
	}
	if want := []string{obs.StateDone, obs.StateFailed, obs.StateDrained}; !reflect.DeepEqual(states, want) {
		t.Errorf("manifest states = %v, want %v", states, want)
	}
	if m.SimCycles != st.SimCycles || m.SimCycles <= 0 || m.Experiments[0].SimCycles != m.SimCycles {
		t.Errorf("manifest sim_cycles = %d (done row %d), ledger's %d; want equal and positive",
			m.SimCycles, m.Experiments[0].SimCycles, st.SimCycles)
	}
	if !m.Incomplete {
		t.Error("a drained run's manifest is not marked incomplete")
	}
}

func TestCloseSurfacesTheJournalsStickyError(t *testing.T) {
	s, stderr := open(t, Flags{Journal: t.TempDir()})
	// An append the writer cannot make durable is remembered, not
	// returned to the fleet; Close is where it must come out.
	if err := s.Resilience.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Resilience.Journal.Append(record); err == nil {
		t.Fatal("append after close succeeded")
	}
	if code := s.Close(); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "journal: ") {
		t.Errorf("stderr = %q", stderr.String())
	}
}
