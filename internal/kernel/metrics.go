package kernel

import "varsim/internal/metrics"

// RegisterMetrics registers the operating-system model's scheduling and
// synchronization counters into reg: context switches, preemptions,
// migrations and steals, lock acquisitions/contentions (the paper's
// primary sources of space variability), plus instantaneous run-queue
// and liveness gauges.
func (os *OS) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("os.ctx_switches", os.CtxSwitches)
	reg.CounterFunc("os.migrations", func() (n uint64) {
		for i := range os.Threads {
			n += os.Threads[i].Migrations
		}
		return
	})
	reg.CounterFunc("os.preempts", func() uint64 { return os.Preempts })
	reg.CounterFunc("os.steals", func() uint64 { return os.Steals })
	reg.CounterFunc("os.lock_acquisitions", func() (n uint64) {
		for i := range os.Locks {
			n += os.Locks[i].Acquisitions
		}
		return
	})
	reg.CounterFunc("os.lock_contentions", os.LockContentions)
	reg.GaugeFunc("os.runnable", func() (n float64) {
		for _, q := range os.RunQ {
			n += float64(len(q))
		}
		return
	})
	reg.GaugeFunc("os.done_threads", func() float64 { return float64(os.DoneCount) })
}
