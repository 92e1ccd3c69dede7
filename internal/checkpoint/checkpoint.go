// Package checkpoint describes simulation checkpoints by construction.
//
// A live checkpoint is a Machine.Snapshot (an in-memory copy-on-write
// branch). The package exploits the simulator's strict determinism: a
// machine's state is a pure function of (configuration, workload name,
// workload seed, perturbation seed, transactions executed), so a
// checkpoint can be named by that small *recipe* and rebuilt exactly by
// replay — the same idea as deterministic-replay checkpointing in real
// simulators, trading rebuild time for storage. Recipes are in-memory
// replay inputs; what goes on disk is an experiment's spec (varsim
// -journal writes spec.json), from which FromExperiment derives one.
//
// Outside tests only bench/, which BENCHMARK.json freezes, imports the
// package; ROADMAP item 9.4 deletes it once bench/ branches through
// core.Branch.
package checkpoint

import (
	"errors"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/machine"
	"varsim/internal/rng"
)

// Recipe identifies a machine state by construction.
type Recipe struct {
	Config       config.Config
	Workload     string
	WorkloadSeed uint64
	PerturbSeed  uint64
	WarmupTxns   int64
}

// FromExperiment captures the checkpoint an Experiment's Prepare step
// produces (same derived perturbation seed, same warmup), so the warmed
// state can be rebuilt (Build) or shared by key (BaseCache).
func FromExperiment(e core.Experiment) Recipe {
	return Recipe{
		Config:       e.Config,
		Workload:     e.Workload,
		WorkloadSeed: e.WorkloadSeed,
		PerturbSeed:  rng.Derive(e.SeedBase, 0),
		WarmupTxns:   e.WarmupTxns,
	}
}

// Validate checks the recipe.
func (r Recipe) Validate() error {
	if r.Workload == "" {
		return errors.New("checkpoint: empty workload name")
	}
	if r.WarmupTxns < 0 {
		return errors.New("checkpoint: negative warmup")
	}
	return r.Config.Validate()
}

// Build reconstructs the checkpointed machine by deterministic replay.
func (r Recipe) Build() (*machine.Machine, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return core.NewCheckpoint(r.Config, r.Workload, r.WorkloadSeed, r.PerturbSeed, r.WarmupTxns)
}
