package checkpoint

import (
	"fmt"

	"varsim/internal/core"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/rng"
	"varsim/internal/sampling"
)

// AdaptiveTimeSample is the stratified counterpart of
// core.Experiment.TimeSample: the checkpoints are strata of the
// workload's lifetime (§5.2), replication is scheduled adaptively on
// the equal-weight stratified estimator (sampling.StratifiedDecide /
// stats.StratifiedCI), and each round's runs branch from bases built
// through the BaseCache — so a stratum's warmup replays once and every
// further run is a near-free copy-on-write Snapshot branch instead of
// a full rerun.
//
// Per-stratum run identities match TimeSample exactly — label
// "<label>@<ck>", seed base rng.Derive(e.SeedBase, 0x100+ci), run
// seeds derived per index — so a journal written fixed-N replays into
// the adaptive schedule and vice versa. Barrier decisions are
// journaled under the synthetic label "<label>@strat" (round-indexed),
// and a -resume replays them. Target.MinRuns/MaxRuns apply per
// stratum; e.Runs per stratum is the fixed-N baseline the arm's
// runs-saved accounting uses.
func AdaptiveTimeSample(bc *BaseCache, e core.Experiment, checkpoints []int64, t sampling.Target) ([]core.Space, sampling.Arm, error) {
	t = t.Normalize()
	h := len(checkpoints)
	cfgHash := journal.ConfigHash(e.Config)
	arm := sampling.Arm{
		Experiment: e.Label, ConfigHash: cfgHash,
		FixedN: e.Runs * h, Status: sampling.StatusIncomplete,
	}
	if err := e.ValidateCheckpoints(checkpoints); err != nil {
		return nil, arm, err
	}
	res := e.Resilience.ObserveOnce()
	spaces := make([]core.Space, h)
	rounds := make([]*core.Rounds, h)
	for ci, ck := range checkpoints {
		recipe := FromExperiment(e)
		recipe.WarmupTxns = ck
		label := fmt.Sprintf("%s@%d", e.Label, ck)
		spaces[ci] = core.Space{Label: label}
		rounds[ci] = &core.Rounds{
			Plan: core.BranchPlan{
				Label: label, SeedBase: rng.Derive(e.SeedBase, 0x100+uint64(ci)),
				MeasureTxns: e.MeasureTxns, Workers: e.Workers, Resilience: res,
			},
			ConfigHash: cfgHash,
			Base:       func() (*machine.Machine, error) { return bc.Build(recipe) },
		}
	}
	executed := func() int {
		n := 0
		for _, sp := range spaces {
			n += len(sp.Values)
		}
		return n
	}
	alloc := make([]int, h)
	for i := range alloc {
		alloc[i] = t.MinRuns // the pilot: every stratum earns a CI
	}
	for round := 0; ; round++ {
		ran := 0
		for ci := range rounds {
			k := alloc[ci]
			if k <= 0 {
				continue
			}
			results, missing, err := rounds[ci].Next(k)
			for _, r := range results {
				spaces[ci].Values = append(spaces[ci].Values, r.CPT)
				spaces[ci].Results = append(spaces[ci].Results, r)
			}
			if err != nil {
				spaces[ci].Missing = missing
				arm.Executed = executed()
				arm.Rounds = round
				return spaces, arm, err
			}
			ran += k
		}
		sampling.CountRound(ran)
		strata := make([][]float64, h)
		for ci := range spaces {
			strata[ci] = spaces[ci].Values
		}
		key := sampling.DecisionKey(e.Label+"@strat", cfgHash, e.SeedBase, round)
		d := core.BarrierDecision(res, key, func() sampling.Decision {
			return sampling.StratifiedDecide(strata, round, t)
		})
		arm.Rounds = round + 1
		arm.Executed = executed()
		arm.RelPct, arm.Needed = d.RelPct, d.Needed
		switch d.Action {
		case sampling.ActionContinue:
			if len(d.Alloc) == h {
				copy(alloc, d.Alloc)
			} else {
				// A journaled decision without a per-stratum split (or a
				// stratum-count mismatch) falls back to an even spread.
				for i := range alloc {
					alloc[i] = 0
				}
				for i := 0; i < d.Next; i++ {
					alloc[i%h]++
				}
			}
		case sampling.ActionStop:
			arm.Status = sampling.StatusConverged
			sampling.CountSettle(arm.FixedN-arm.Executed, false)
			return spaces, arm, nil
		default:
			arm.Status = sampling.StatusBudget
			sampling.CountSettle(arm.FixedN-arm.Executed, false)
			return spaces, arm, nil
		}
	}
}
