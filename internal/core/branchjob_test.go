package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"varsim/internal/config"
	"varsim/internal/fleet"
	"varsim/internal/machine"
)

// TestFaultedBranchKeepsItsMachine drives branchJob through a fleet in
// which some runs panic mid-run, after they have already run their
// machine part of the way. Such a machine must never be handed on: the
// next branch would be built over storage a dead run left. The fleet
// must report the lowest faulted index, every other run must be the
// fault-free one, every machine that faulted must still run when the
// fleet is done, and some that finished must have been taken over (or
// the test is not exercising the hand-over at all) — at every width.
func TestFaultedBranchKeepsItsMachine(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 4
	e := Experiment{
		Label: "faulted", Config: cfg, Workload: "oltp", WorkloadSeed: 7,
		WarmupTxns: 20, MeasureTxns: 8, Runs: 14, SeedBase: 0xFA17,
	}
	checkpoint, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Branch(checkpoint, e.BranchPlan())
	if err != nil {
		t.Fatal(err)
	}

	// Faults are scripted by call number, not job index: run is not told
	// which job it serves, and the contract must hold whichever job a
	// fault lands on.
	panicOn := map[int]bool{2: true, 7: true, 11: true}
	for _, width := range []int{1, 4, runtime.NumCPU()} {
		var (
			mu                sync.Mutex
			calls             int
			faultedAt         []int
			faulted, finished []*machine.Machine
		)
		run := func(m *machine.Machine) (BranchedRun, error) {
			mu.Lock()
			call := calls
			calls++
			mu.Unlock()
			if panicOn[call] {
				if _, err := m.Run(3); err != nil {
					return BranchedRun{}, err
				}
				mu.Lock()
				faulted = append(faulted, m)
				mu.Unlock()
				panic(fmt.Sprintf("scripted panic in call %d", call))
			}
			res, err := m.Run(e.MeasureTxns)
			mu.Lock()
			finished = append(finished, m)
			mu.Unlock()
			return BranchedRun{Result: res}, err
		}
		job := branchJob(checkpoint, e.SeedBase, nil, run)
		got, err := fleet.Run(fleet.Options[BranchedRun]{Workers: width}, e.Runs, func(i int) (BranchedRun, error) {
			settled := false
			defer func() {
				if !settled { // panicking: note the index, let the fleet recover
					mu.Lock()
					faultedAt = append(faultedAt, i)
					mu.Unlock()
				}
			}()
			r, err := job(i)
			settled = true
			return r, err
		})

		mu.Lock()
		if len(faultedAt) != len(panicOn) || len(faulted) != len(panicOn) {
			t.Fatalf("width %d: %d jobs faulted over %d machines, scripted %d", width, len(faultedAt), len(faulted), len(panicOn))
		}
		var je *fleet.JobError
		if !errors.As(err, &je) || je.Index != slices.Min(faultedAt) || !strings.Contains(err.Error(), "scripted panic") {
			t.Errorf("width %d: err = %v, want the panic of the lowest faulted job %d", width, err, slices.Min(faultedAt))
		}
		for i := range got {
			if !slices.Contains(faultedAt, i) && !reflect.DeepEqual(got[i], want.Runs[i]) {
				t.Errorf("width %d: run %d differs from the fault-free one", width, i)
			}
		}
		for i, m := range faulted {
			if _, err := m.Run(1); err != nil {
				t.Errorf("width %d: faulted machine %d was handed on: %v", width, i, err)
			}
		}
		recycled := 0
		for _, m := range finished {
			if _, err := m.Run(1); err != nil && strings.Contains(err.Error(), "SnapshotOver") {
				recycled++
			}
		}
		mu.Unlock()
		// A fleet as wide as the space starts every job before any ends.
		if recycled == 0 && width <= 4 {
			t.Errorf("width %d: no finished branch was taken over", width)
		}
	}
}

// TestRoundsRecycleAcrossRounds: an arm's finished branches outlive the
// Branch call that ran them, so every round after the first takes all
// its branches over spent ones — the recycled budget of machine's
// TestAllocationBudgets (13.5 KB a branch of that test's shape, which is
// this one's; a round of three reads 8-18 KB), where a pool that died
// with each call would pay a fresh branch's 0.43 MB at the head of every
// round — and the space is still the one a single fixed-N Branch gives.
func TestRoundsRecycleAcrossRounds(t *testing.T) {
	const perRound, perBranch = 3, 13_500
	cfg := config.Default()
	cfg.NumCPUs = 8
	e := Experiment{
		Label: "rounds", Config: cfg, Workload: "oltp", WorkloadSeed: 0xA1A3,
		WarmupTxns: 2000, MeasureTxns: 5, Runs: 4 * perRound, SeedBase: 0x600D,
	}
	a := e.arm(new(fleet.Pool[*machine.Machine]))
	for round := 0; round < 4; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a.want = perRound
		err := a.next()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// Round 0 builds the checkpoint and has nothing to build over.
		if bytes := after.TotalAlloc - before.TotalAlloc; round > 0 && bytes > perRound*perBranch {
			t.Errorf("round %d allocated %d bytes for %d branches, budget %d each", round, bytes, perRound, perBranch)
		}
	}
	want, err := e.Branch(e.BranchPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.sp.Results, want.Space().Results) {
		t.Error("the space taken round by round differs from the fixed-N one")
	}
}

// TestBranchRecyclesWithinBudget: a Branch of 200 runs at width 1 over a
// pool holding one finished branch takes each branch over the one before,
// so a branch costs what one SnapshotOver and Run of machine's recycled
// TestAllocationBudgets may (13 500 bytes), the bookkeeping core and
// fleet keep per run included. It is ~1.3 KB: the 768-byte Machine
// struct, the run's result slots, its profiler labels and context.
func TestBranchRecyclesWithinBudget(t *testing.T) {
	const n, perBranch = 200, 13_500
	cfg := config.Default()
	cfg.NumCPUs = 8
	e := Experiment{
		Label: "budget", Config: cfg, Workload: "oltp", WorkloadSeed: 0xA1A3,
		WarmupTxns: 2000, MeasureTxns: 5, Runs: 1, SeedBase: 0xB0D6, Workers: 1,
	}
	checkpoint, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	p := e.BranchPlan()
	p.spent = new(fleet.Pool[*machine.Machine])
	if _, err := Branch(checkpoint, p); err != nil { // the first: nothing to build over
		t.Fatal(err)
	}
	p.Lo, p.N = 1, n
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Branch(checkpoint, p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes a branch", bytes)
	if bytes > perBranch {
		t.Fatalf("Branch of %d runs over one pool allocated %d bytes a branch, budget %d", n, bytes, perBranch)
	}
}

// TestDrainedBranchStartsNothing: a plan whose drain has already fired
// does not ask for its checkpoint — building it is a warmup, and after a
// drain nothing new starts — and reports every run as missing.
func TestDrainedBranchStartsNothing(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	p := BranchPlan{Label: "drained", Lo: 2, N: 3, MeasureTxns: 8, Resilience: Resilience{Stop: stop}}
	b, err := branch("cfg", func() (*machine.Machine, error) {
		t.Fatal("a drained plan built its checkpoint")
		return nil, nil
	}, p)
	var inc *fleet.Incomplete
	if !errors.As(err, &inc) || !reflect.DeepEqual(inc.Missing, []int{2, 3, 4}) {
		t.Fatalf("err = %v, want *fleet.Incomplete missing [2 3 4]", err)
	}
	if !reflect.DeepEqual(b.Missing, inc.Missing) || len(b.Runs) != p.N {
		t.Errorf("Branched missing %v with %d runs, want %v with %d", b.Missing, len(b.Runs), inc.Missing, p.N)
	}
}
