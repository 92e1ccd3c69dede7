package machine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"varsim/internal/config"
	"varsim/internal/digest"
	"varsim/internal/rng"
)

// runBranch drives one branch to completion with digests on, returning
// the Result and the full digest chain — together a byte-identity
// witness for the entire machine state trajectory.
func runBranch(t *testing.T, m *Machine, seed uint64, txns int64) (Result, []digest.Vector) {
	t.Helper()
	m.SetPerturbSeed(seed)
	m.EnableDigests(20_000)
	res, err := m.Run(txns)
	if err != nil {
		t.Fatal(err)
	}
	series := m.DigestSeries()
	chain := make([]digest.Vector, series.Len())
	for i, s := range series.Samples {
		chain[i] = s.Chain
	}
	return res, chain
}

// TestCOWBranchMatchesDeep is the machine-level copy-on-write property
// test: random interleavings of run/snapshot/branch steps must leave a
// lazy COW branch and an eagerly materialized deep branch on identical
// trajectories — same Result, same interval digest chain.
func TestCOWBranchMatchesDeep(t *testing.T) {
	for _, wl := range []string{"oltp", "barnes"} {
		t.Run(wl, func(t *testing.T) {
			r := rng.New(0xC0)
			base := mustMachine(t, testConfig(), wl, 1, 1)
			for trial := 0; trial < 4; trial++ {
				// Random warmup between trials mutates the shared base, so
				// each trial branches from a different frozen state.
				if _, err := base.Run(int64(5 + r.Intn(20))); err != nil {
					t.Fatal(err)
				}
				seed := uint64(r.Intn(1000)) + 1
				txns := int64(5 + r.Intn(10))

				cow := base.Snapshot()
				deep := base.Snapshot()
				deep.Materialize()

				cowRes, cowChain := runBranch(t, cow, seed, txns)
				deepRes, deepChain := runBranch(t, deep, seed, txns)
				if !reflect.DeepEqual(cowRes, deepRes) {
					t.Fatalf("trial %d: COW branch result diverged from deep branch:\ncow:  %+v\ndeep: %+v",
						trial, cowRes, deepRes)
				}
				if !reflect.DeepEqual(cowChain, deepChain) {
					t.Fatalf("trial %d: digest chains diverged (cow %d samples, deep %d)",
						trial, len(cowChain), len(deepChain))
				}
			}
		})
	}
}

// TestCOWBranchChain pins branch-of-branch: a grandchild snapshotted
// from a mutated child must reproduce the child's trajectory, and
// running the child further must not disturb the grandchild.
func TestCOWBranchChain(t *testing.T) {
	base := mustMachine(t, testConfig(), "oltp", 1, 1)
	if _, err := base.Run(20); err != nil {
		t.Fatal(err)
	}
	child := base.Snapshot()
	if _, err := child.Run(10); err != nil {
		t.Fatal(err)
	}
	grand := child.Snapshot()
	want, wantChain := runBranch(t, child.Snapshot(), 3, 10)
	if _, err := child.Run(25); err != nil { // child races ahead
		t.Fatal(err)
	}
	got, gotChain := runBranch(t, grand, 3, 10)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotChain, wantChain) {
		t.Fatalf("grandchild trajectory disturbed by the child's later run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRecycledSnapshotMatchesFresh: generation after generation, a
// snapshot taken over a finished branch's storage runs exactly as a
// fresh Snapshot and as its Materialized twin do under the same seed —
// same Result, same chain of all five digest components — whether the
// storage comes from the previous recycled branch or from a twin that
// owned every page, and with the base running on between generations as
// TimeSample's does, so that what the spent machine was a snapshot of no
// longer exists. The spent machine itself must then refuse to run.
func TestRecycledSnapshotMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		wl   string
		proc config.ProcessorKind
		txns int64 // enough for a few digest intervals
	}{{"oltp", config.SimpleProc, 12}, {"specjbb", config.OOOProc, 80}} {
		t.Run(tc.wl, func(t *testing.T) {
			cfg := testConfig()
			cfg.Processor = tc.proc
			base := mustMachine(t, cfg, tc.wl, 1, 1)
			if _, err := base.Run(30); err != nil {
				t.Fatal(err)
			}
			var spent *Machine
			for gen := 0; gen < 24; gen++ {
				if gen%4 == 3 {
					if _, err := base.Run(6); err != nil {
						t.Fatal(err)
					}
				}
				seed, txns := uint64(gen)+1, tc.txns*int64(4+gen%5)/4
				fresh, deep := base.Snapshot(), base.Snapshot()
				deep.Materialize()
				over := base.SnapshotOver(spent)
				wantRes, wantChain := runBranch(t, fresh, seed, txns)
				deepRes, deepChain := runBranch(t, deep, seed, txns)
				gotRes, gotChain := runBranch(t, over, seed, txns)
				if !reflect.DeepEqual(gotRes, wantRes) || !reflect.DeepEqual(gotRes, deepRes) {
					t.Fatalf("generation %d: results diverged\nrecycled: %+v\nfresh:    %+v\ndeep:     %+v", gen, gotRes, wantRes, deepRes)
				}
				if len(wantChain) == 0 || !reflect.DeepEqual(gotChain, wantChain) || !reflect.DeepEqual(gotChain, deepChain) {
					t.Fatalf("generation %d: digest chains diverged (recycled %d samples, fresh %d, deep %d)",
						gen, len(gotChain), len(wantChain), len(deepChain))
				}
				if spent != nil {
					if _, err := spent.Run(1); err == nil || !strings.Contains(err.Error(), "SnapshotOver") {
						t.Fatalf("generation %d: Run on a spent machine returned %v, want an error naming SnapshotOver", gen, err)
					}
				}
				// The next generation builds over this one, or over the twin
				// that owns every page.
				spent = over
				if gen%2 == 1 {
					spent = deep
				}
			}
			// A machine taken over by itself must refuse before it writes:
			// the checkpoint still branches as it did.
			before := base.Snapshot()
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "SnapshotOver") {
						t.Fatalf("SnapshotOver of a machine over itself: recovered %v, want a panic naming SnapshotOver", r)
					}
				}()
				base.SnapshotOver(base)
			}()
			wantRes, wantChain := runBranch(t, before, 1, tc.txns)
			if gotRes, gotChain := runBranch(t, base.Snapshot(), 1, tc.txns); !reflect.DeepEqual(gotRes, wantRes) || !reflect.DeepEqual(gotChain, wantChain) {
				t.Fatalf("SnapshotOver of a machine over itself changed it:\nafter:  %+v\nbefore: %+v", gotRes, wantRes)
			}

			base.SnapshotOver(spent)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "SnapshotOver") {
					t.Fatalf("Snapshot of a spent machine: recovered %v, want a panic naming SnapshotOver", r)
				}
			}()
			spent.Snapshot()
		})
	}
}

// TestConcurrentSiblingBranches is the -race contract for the fleet
// path: Freeze the base once, then snapshot and run sibling branches
// from many goroutines at once. Every sibling must reproduce the
// result its perturbation seed produced sequentially.
func TestConcurrentSiblingBranches(t *testing.T) {
	base := mustMachine(t, testConfig(), "oltp", 1, 1)
	if _, err := base.Run(30); err != nil {
		t.Fatal(err)
	}
	base.Freeze()

	const siblings = 8
	want := make([]Result, siblings)
	for i := range want {
		m := base.Snapshot()
		m.SetPerturbSeed(uint64(i) + 1)
		res, err := m.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	got := make([]Result, siblings)
	errs := make([]error, siblings)
	var wg sync.WaitGroup
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := base.Snapshot()
			m.SetPerturbSeed(uint64(i) + 1)
			got[i], errs[i] = m.Run(10)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("sibling %d: concurrent branch diverged from sequential reference:\ngot  %+v\nwant %+v",
				i, got[i], want[i])
		}
	}
}

// TestSnapshotOfRunningMachineRefreezes: Run clears the frozen latch,
// and the next Snapshot re-freezes — the sequential contract needs no
// explicit Freeze calls.
func TestSnapshotOfRunningMachineRefreezes(t *testing.T) {
	m := mustMachine(t, testConfig(), "oltp", 1, 1)
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.frozen {
		t.Fatal("machine still frozen after Run")
	}
	_ = m.Snapshot()
	if !m.frozen {
		t.Fatal("Snapshot did not freeze the machine")
	}
	if _, err := m.Run(5); err != nil {
		t.Fatal(err)
	}
	if m.frozen {
		t.Fatal("Run did not clear the frozen latch")
	}
}
