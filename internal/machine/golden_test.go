package machine

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"varsim/internal/config"
	"varsim/internal/digest"
)

var update = flag.Bool("update", false, "rewrite the .golden files under testdata")

// trajectoryCases are the golden's windows: every workload, a warm-up
// that leaves caches and run queues in mid-flight state, then a short
// measured window. The transactional workloads warm by transaction
// count; the fixed-work scientific codes, whose one "transaction" is the
// whole program, warm by simulated time and then run to completion. The
// default 1 ms quantum never expires in windows this short, so OLTP
// runs once more under a 20 µs jittered quantum, where preemption
// deadlines fall inside compute runs.
var trajectoryCases = []struct {
	workload  string
	quantumNS int64 // 0 = the default quantum, unjittered
	warmTxns  int64 // Run(warmTxns) when positive …
	warmNS    int64 // … else RunNS(warmNS)
	txns      int64
}{
	{"oltp", 0, 20, 0, 20},
	{"oltp", 20_000, 20, 0, 20},
	{"apache", 0, 60, 0, 60},
	{"specjbb", 0, 80, 0, 80},
	{"slashcode", 0, 6, 0, 6},
	{"ecperf", 0, 2, 0, 2},
	{"barnes", 0, 0, 150_000, 1},
	{"ocean", 0, 0, 150_000, 1},
}

// trajectoryLine runs one case and renders everything it pins: every
// field of the window's Result and, for each digest component, the last
// link of its chain — which, the chains being cumulative, holds the
// whole trajectory since time zero, warm-up included.
func trajectoryLine(t *testing.T, wl string, proc config.ProcessorKind, quantumNS, warmTxns, warmNS, txns int64) string {
	t.Helper()
	cfg := testConfig()
	cfg.Processor = proc
	label := fmt.Sprintf("%s/%s", wl, proc)
	if quantumNS > 0 {
		cfg.QuantumNS = quantumNS
		cfg.PerturbQuantumNS = quantumNS / 4
		label += fmt.Sprintf("/q%dus", quantumNS/1000)
	}
	m := mustMachine(t, cfg, wl, 7, 99)
	m.EnableDigests(digTickNS)
	var err error
	if warmTxns > 0 {
		_, err = m.Run(warmTxns)
	} else {
		_, err = m.RunNS(warmNS)
	}
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(txns)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s elapsed_ns=%d txns=%d cpt=%s instrs=%d", label, r.ElapsedNS, r.Txns,
		strconv.FormatFloat(r.CPT, 'g', -1, 64), r.Instrs)
	fmt.Fprintf(&b, " l1d=%d l1i=%d l2=%d bus=%d c2c=%d memfetch=%d wb=%d",
		r.L1DMisses, r.L1IMisses, r.L2Misses, r.BusRequests, r.CacheToCache, r.MemFetches, r.Writebacks)
	fmt.Fprintf(&b, " ctx=%d preempt=%d steal=%d lockcont=%d events=%d",
		r.CtxSwitches, r.Preempts, r.Steals, r.LockContentions, r.Events)
	s := m.DigestSeries()
	if s.Len() == 0 {
		t.Fatalf("%s: no digest tick fell inside the run", label)
	}
	last := s.Samples[s.Len()-1]
	fmt.Fprintf(&b, " ticks=%d", s.Len())
	for c, name := range digest.ComponentNames() {
		fmt.Fprintf(&b, " %s=%016x", name, last.Chain[c])
	}
	return b.String()
}

// TestTrajectoryGolden pins absolute simulated outputs: the other
// byte-identity tests (replay, resume, COW ≡ deep) compare a build with
// itself, so a change that moved every trajectory the same way would
// pass them all. The file was recorded by the per-op simple core of
// PR 16, before the bulk compute-run path existed, and that path must
// reproduce it unedited. Row popularity goes through math.Pow, whose
// last bit may differ between architectures, so the file names the
// GOARCH that wrote it and the test skips elsewhere.
func TestTrajectoryGolden(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintf(&got, "# GOARCH %s\n", runtime.GOARCH)
	path := filepath.Join("testdata", "trajectory.golden")
	var want []byte
	if !*update {
		var err error
		if want, err = os.ReadFile(path); err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		header, _, _ := bytes.Cut(want, []byte("\n"))
		if arch := strings.TrimPrefix(string(header), "# GOARCH "); arch != runtime.GOARCH {
			t.Skipf("%s was recorded on GOARCH %s; this is %s", path, arch, runtime.GOARCH)
		}
	}
	for _, c := range trajectoryCases {
		for _, proc := range []config.ProcessorKind{config.SimpleProc, config.OOOProc} {
			fmt.Fprintln(&got, trajectoryLine(t, c.workload, proc, c.quantumNS, c.warmTxns, c.warmNS, c.txns))
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("simulated trajectories drifted from %s\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
