package traceviz

import (
	"bytes"
	"encoding/json"
	"testing"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/trace"
)

// decode parses WriteJSON output back into generic structures.
func decode(t *testing.T, b []byte) (string, []map[string]any) {
	t.Helper()
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	return doc.DisplayTimeUnit, doc.TraceEvents
}

func TestWriteJSONStructure(t *testing.T) {
	evs := []trace.Event{
		{TimeNS: 0, Kind: trace.Dispatch, CPU: 0, Thread: 1},
		{TimeNS: 50, Kind: trace.LockContended, CPU: 0, Thread: 1, Arg: 7},
		{TimeNS: 120, Kind: trace.LockAcquire, CPU: 0, Thread: 1, Arg: 7},
		{TimeNS: 200, Kind: trace.TxnEnd, CPU: 0, Thread: 1, Arg: 3},
		{TimeNS: 260, Kind: trace.LockRelease, CPU: 0, Thread: 1, Arg: 7},
		{TimeNS: 300, Kind: trace.Block, CPU: 0, Thread: 1, Arg: int64(trace.ReasonLock)},
		{TimeNS: 310, Kind: trace.Dispatch, CPU: 0, Thread: 2},
		// Left open at end of trace: must still be closed in the output.
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Run{Name: "run A", Events: evs, NumCPUs: 2}); err != nil {
		t.Fatal(err)
	}
	unit, out := decode(t, buf.Bytes())
	if unit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", unit)
	}

	// B/E balance per (pid, tid), never going negative.
	depth := map[[2]int]int{}
	var locks, txns, procNames int
	for _, ev := range out {
		pid, tid := int(ev["pid"].(float64)), 0
		if v, ok := ev["tid"]; ok {
			tid = int(v.(float64))
		}
		switch ev["ph"] {
		case "B":
			depth[[2]int{pid, tid}]++
		case "E":
			depth[[2]int{pid, tid}]--
			if depth[[2]int{pid, tid}] < 0 {
				t.Fatalf("E without matching B on pid %d tid %d", pid, tid)
			}
		case "X":
			locks++
			if tid != 2+1 { // NumCPUs + thread 1
				t.Errorf("lock span on tid %d, want %d", tid, 3)
			}
		case "i":
			txns++
		case "M":
			if ev["name"] == "process_name" {
				procNames++
			}
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Errorf("unbalanced B/E on pid/tid %v: depth %d", k, d)
		}
	}
	if locks != 2 { // one wait span + one held span
		t.Errorf("lock X spans = %d, want 2", locks)
	}
	if txns != 1 {
		t.Errorf("txn instants = %d, want 1", txns)
	}
	if procNames != 1 {
		t.Errorf("process_name metadata = %d, want 1", procNames)
	}
}

// TestBarnesTwoRuns branches two perturbed runs of the barnes workload
// from one warmed checkpoint and checks the exported trace holds two
// process groups with balanced spans — the acceptance shape for
// `varsim -perfetto` output.
func TestBarnesTwoRuns(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 4
	// barnes is a fixed-work scientific program: skip warmup so the
	// measured window still has work left to trace.
	e := core.Experiment{
		Label: "barnes", Config: cfg, Workload: "barnes", WorkloadSeed: 1,
		WarmupTxns: 0, MeasureTxns: 10, Runs: 2, SeedBase: 42,
	}
	base, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	plan := e.BranchPlan()
	plan.Trace = true
	b, err := core.Branch(base, plan)
	if err != nil {
		t.Fatal(err)
	}
	sp := b.Space()
	if len(b.Runs) != 2 || len(sp.Values) != 2 {
		t.Fatalf("got %d traces, %d values; want 2, 2", len(b.Runs), len(sp.Values))
	}
	for i, run := range b.Runs {
		if len(run.Events) == 0 {
			t.Fatalf("run %d recorded no events", i)
		}
	}

	var buf bytes.Buffer
	runs := []Run{
		{Name: "run 0", Events: b.Runs[0].Events, NumCPUs: cfg.NumCPUs},
		{Name: "run 1", Events: b.Runs[1].Events, NumCPUs: cfg.NumCPUs},
	}
	if err := WriteJSON(&buf, runs...); err != nil {
		t.Fatal(err)
	}
	unit, out := decode(t, buf.Bytes())
	if unit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", unit)
	}
	pids := map[int]bool{}
	depth := map[[2]int]int{}
	dispatchSpans := 0
	for _, ev := range out {
		pid := int(ev["pid"].(float64))
		pids[pid] = true
		tid := 0
		if v, ok := ev["tid"]; ok {
			tid = int(v.(float64))
		}
		switch ev["ph"] {
		case "B":
			if tid >= cfg.NumCPUs {
				t.Fatalf("dispatch span on tid %d, beyond CPU tracks (%d)", tid, cfg.NumCPUs)
			}
			depth[[2]int{pid, tid}]++
			dispatchSpans++
		case "E":
			depth[[2]int{pid, tid}]--
			if depth[[2]int{pid, tid}] < 0 {
				t.Fatalf("E without matching B on pid %d tid %d", pid, tid)
			}
		}
	}
	if len(pids) != 2 {
		t.Fatalf("process groups = %d, want 2 (one per perturbed run)", len(pids))
	}
	for k, d := range depth {
		if d != 0 {
			t.Errorf("unbalanced B/E on pid/tid %v: depth %d", k, d)
		}
	}
	if dispatchSpans == 0 {
		t.Error("no dispatch spans exported")
	}
}
