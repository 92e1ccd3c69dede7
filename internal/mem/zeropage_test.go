package mem_test

import (
	"fmt"
	"testing"

	"varsim/internal/config"
	"varsim/internal/machine"
	"varsim/internal/mem"
	"varsim/internal/workloads"
)

// TestZeroPagesStayZero: every cache in the process starts on the same
// two zero pages, so a writer that skips the copy-on-write claim would
// write into every other cache's empty sets. All seven workloads run on
// both cores, and one on MESI, side by side, each from machine.New,
// from a Snapshot and from a SnapshotOver a spent branch; afterwards
// both zero pages must still be all zeros. Under -race a write to them
// also shows as a race between the parallel machines.
func TestZeroPagesStayZero(t *testing.T) {
	type run struct {
		wl   string
		proc config.ProcessorKind
		mesi bool
	}
	var runs []run
	for _, wl := range workloads.Names() {
		for _, proc := range []config.ProcessorKind{config.SimpleProc, config.OOOProc} {
			runs = append(runs, run{wl, proc, false})
		}
	}
	runs = append(runs, run{"specjbb", config.SimpleProc, true})
	t.Run("machines", func(t *testing.T) {
		for _, r := range runs {
			t.Run(fmt.Sprintf("%s/%v/mesi=%v", r.wl, r.proc, r.mesi), func(t *testing.T) {
				t.Parallel()
				cfg := config.Default()
				cfg.NumCPUs = 4
				cfg.Processor = r.proc
				cfg.CoherenceMESI = r.mesi
				inst, err := workloads.New(r.wl, cfg, 3)
				if err != nil {
					t.Fatal(err)
				}
				m, err := machine.New(cfg, inst, 1)
				if err != nil {
					t.Fatal(err)
				}
				const span = 250_000 // ns
				if _, err := m.RunNS(span); err != nil {
					t.Fatal(err)
				}
				branch := m.Snapshot()
				branch.SetPerturbSeed(2)
				if _, err := branch.RunNS(span); err != nil {
					t.Fatal(err)
				}
				over := m.SnapshotOver(branch)
				over.SetPerturbSeed(3)
				if _, err := over.RunNS(span); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
	for i, w := range mem.ZeroTags {
		if w != 0 {
			t.Fatalf("shared zero tag page holds %#x at line %d", w, i)
		}
	}
	for i, r := range mem.ZeroRanks {
		if r != 0 {
			t.Fatalf("shared zero rank page holds rank %d at line %d", r, i)
		}
	}
}
