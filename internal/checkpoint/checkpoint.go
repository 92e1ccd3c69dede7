// Package checkpoint persists simulation checkpoints to disk.
//
// A live checkpoint is a Machine.Snapshot (an in-memory deep copy). For
// durability the package exploits the simulator's strict determinism:
// a machine's state is a pure function of (configuration, workload name,
// workload seed, perturbation seed, transactions executed), so a
// checkpoint can be stored as that small *recipe* and rebuilt exactly by
// replay — the same idea as deterministic-replay checkpointing in real
// simulators, trading rebuild time for a few hundred bytes of storage.
//
// Recipes serialize as JSON, so they double as a readable record of an
// experiment's exact initial conditions.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/machine"
	"varsim/internal/rng"
)

// Recipe identifies a machine state by construction.
type Recipe struct {
	Config       config.Config `json:"config"`
	Workload     string        `json:"workload"`
	WorkloadSeed uint64        `json:"workload_seed"`
	PerturbSeed  uint64        `json:"perturb_seed"`
	WarmupTxns   int64         `json:"warmup_txns"`
}

// FromExperiment captures the checkpoint an Experiment's Prepare step
// produces (same derived perturbation seed, same warmup), so the warmed
// state can be persisted and rebuilt elsewhere.
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

// Save writes the recipe as indented JSON.
func Save(w io.Writer, r Recipe) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Load reads a recipe written by Save.
func Load(rd io.Reader) (Recipe, error) {
	var r Recipe
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Recipe{}, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if err := r.Validate(); err != nil {
		return Recipe{}, err
	}
	return r, nil
}

// SaveFile writes the recipe to path.
func SaveFile(path string, r Recipe) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Save(f, r); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a recipe from path.
func LoadFile(path string) (Recipe, error) {
	f, err := os.Open(path)
	if err != nil {
		return Recipe{}, err
	}
	defer f.Close()
	return Load(f)
}
