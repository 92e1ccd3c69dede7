package checkpoint

import (
	"sync"

	"varsim/internal/machine"
)

// BaseCache amortizes recipe replay across repeated Builds: the first
// Build of a recipe reconstructs the machine by deterministic replay
// (Recipe.Build), freezes it as a copy-on-write base, and every
// subsequent Build of the same recipe returns a cheap Snapshot branch
// of that base instead of replaying the warmup again. Because a
// machine is a pure function of its recipe and Snapshot branches are
// state-identical to their base, a branch is indistinguishable from a
// freshly replayed machine — the agreement test pins this.
//
// The zero value is not usable; call NewBaseCache. Safe for concurrent
// use: the lock is held across a rebuild so one goroutine replays a
// recipe while the rest wait and then branch, keeping every caller's
// machine identical regardless of arrival order. The cached bases stay
// frozen forever — handing out branches never mutates them — so cache
// hits perform no writes to shared simulation state (the determinism
// wall's requirement on the materialize path).
//
// Kept for bench/, which BENCHMARK.json freezes; nothing else builds
// through it, and the tree proper calls core.NewCheckpoint. Bases are
// nearly, not exactly, built once: quick `all` makes 62 machine builds
// of 61 recipes. sampling replays Table 1's and Table 3's runs from the
// run store (core.Resilience.Cache) rather than re-warming their ten
// bases; the one repeat left is the ablations' two zero-warm-up
// TimeSamples, which share a start but no checkpoint, so a base cache
// would save one cold build.
type BaseCache struct {
	mu    sync.Mutex
	bases map[Recipe]*machine.Machine
}

// NewBaseCache returns an empty cache.
func NewBaseCache() *BaseCache {
	return &BaseCache{bases: make(map[Recipe]*machine.Machine)}
}

// Build returns a machine in exactly the state r.Build() would
// produce, replaying the recipe only on the first call for each
// distinct recipe and branching the frozen base thereafter. The
// returned machine is private to the caller.
func (c *BaseCache) Build(r Recipe) (*machine.Machine, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	base, ok := c.bases[r]
	if !ok {
		m, err := r.Build()
		if err != nil {
			return nil, err
		}
		m.Freeze()
		c.bases[r] = m
		base = m
	}
	return base.Snapshot(), nil
}
