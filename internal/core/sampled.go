package core

import (
	"varsim/internal/machine"
	"varsim/internal/metrics"
)

// SampleRun branches one perturbed run of measureTxns transactions from
// the checkpoint machine with interval metric sampling every intervalNS
// of simulated time, and returns the run's measurement plus the sampled
// registry time series — the live-instrumentation form of the paper's
// per-interval figures (Figures 2–4): IPC, miss rates and bus
// utilization derive from the series' Delta/Ratio/PerCycle helpers.
func SampleRun(checkpoint *machine.Machine, measureTxns int64, perturbSeed uint64, intervalNS int64) (machine.Result, metrics.TimeSeries, error) {
	m := checkpoint.Snapshot()
	m.SetPerturbSeed(perturbSeed)
	m.EnableSampling(intervalNS)
	res, err := m.Run(measureTxns)
	if err != nil {
		return machine.Result{}, metrics.TimeSeries{}, err
	}
	return res, m.MetricSeries(), nil
}
