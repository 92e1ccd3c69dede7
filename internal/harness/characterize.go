package harness

import (
	"fmt"

	"varsim/internal/core"
	"varsim/internal/trace"
	"varsim/internal/workloads"
)

// Characterize measures the architectural character of each workload —
// the kind of table §3.1 of the paper (and the characterization studies
// it cites) describe qualitatively: memory behaviour, sharing, operating
// system interaction, and lock contention. It doubles as a sanity check
// that each synthetic stand-in exhibits the structure claimed for it in
// DESIGN.md (e.g. SPECjbb shares nothing; Slashcode convoys).
func (h *H) Characterize() error {
	type row struct {
		name   string
		warmup int64
		txns   int64
	}
	benches := []row{
		{"oltp", 300, 300}, {"apache", 300, 600}, {"specjbb", 300, 1000},
		{"slashcode", 10, 20}, {"ecperf", 3, 10},
		{"barnes", 0, 1}, {"ocean", 0, 1},
	}
	rows := [][]string{}
	for _, b := range benches {
		inst, err := workloads.New(b.name, h.baseConfig(), h.opt.Seed)
		if err != nil {
			return err
		}
		m, err := core.NewCheckpoint(h.baseConfig(), b.name, h.opt.Seed, 1, 0)
		if err != nil {
			return err
		}
		if b.warmup > 0 {
			if _, err := m.Run(h.scaleTxns(b.warmup)); err != nil {
				return fmt.Errorf("%s warmup: %w", b.name, err)
			}
		}
		m.EnableTrace(0)
		txns := b.txns
		if b.name != "barnes" && b.name != "ocean" {
			txns = h.scaleTxns(b.txns)
		}
		res, err := m.Run(txns)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		kInstr := float64(res.Instrs) / 1000
		lockRep := trace.LockReport(m.Trace().Events())
		var acq, cont uint64
		for _, l := range lockRep {
			acq += l.Acquisitions
			cont += l.Contentions
		}
		contRate := 0.0
		if acq > 0 {
			contRate = float64(cont) / float64(acq)
		}
		c2cShare := 0.0
		if res.BusRequests > 0 {
			c2cShare = 100 * float64(res.CacheToCache) / float64(res.BusRequests)
		}
		rows = append(rows, []string{
			b.name,
			fmt.Sprintf("%d", inst.NumThreads()),
			fmt.Sprintf("%.0f", float64(res.Instrs)/float64(res.Txns)),
			fmt.Sprintf("%.1f", float64(res.L1DMisses)/kInstr),
			fmt.Sprintf("%.1f", float64(res.L1IMisses)/kInstr),
			fmt.Sprintf("%.1f", float64(res.L2Misses)/kInstr),
			fmt.Sprintf("%.1f%%", c2cShare),
			fmt.Sprintf("%.2f", float64(res.CtxSwitches)/float64(res.Txns)),
			fmt.Sprintf("%.2f", contRate),
		})
	}
	h.table("workload\tthreads\tinstr/txn\tL1D/ki\tL1I/ki\tL2/ki\tc2c share\tcsw/txn\tlock cont/acq", rows)
	fmt.Fprintln(h.opt.Out, "expected structure: SPECjbb near-zero sharing and locks; Slashcode highest contention;")
	fmt.Fprintln(h.opt.Out, "scientific codes barrier-bound with low OS interaction; OLTP heavy everything (§3.1)")
	return nil
}
