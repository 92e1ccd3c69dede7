package mem

import (
	"testing"

	"varsim/internal/config"
	"varsim/internal/digest"
	"varsim/internal/rng"
)

func sigCacheCfg() config.CacheConfig {
	return config.CacheConfig{SizeBytes: 4096, Assoc: 4, BlockBits: 6, HitNS: 1}
}

// TestIncrementalSigMatchesFold drives a cache through a randomized mix
// of every mutating operation and checks the incremental signature
// against a from-scratch fold at each step. This is the property the
// whole mem digest rests on: sig updates at mutation sites exactly
// track the state they summarize.
func TestIncrementalSigMatchesFold(t *testing.T) {
	c := NewCache(sigCacheCfg())
	if c.StateSig() != 0 {
		t.Fatalf("empty cache sig = %x, want 0", c.StateSig())
	}
	r := rng.New(123)
	states := []State{Shared, Owned, Modified, Exclusive}
	for step := 0; step < 5000; step++ {
		block := uint64(r.Intn(64)) // few blocks -> plenty of conflict misses
		switch r.Intn(6) {
		case 0, 1:
			c.Fill(block, states[r.Intn(len(states))])
		case 2:
			c.SetState(block, states[r.Intn(len(states))])
		case 3:
			c.SetState(block, Invalid)
		case 4:
			c.SetDirty(block)
		case 5:
			c.Invalidate(block)
		}
		if got, want := c.StateSig(), c.foldSig(); got != want {
			t.Fatalf("step %d: incremental sig %x != fold %x", step, got, want)
		}
	}
	if c.StateSig() == 0 {
		t.Fatalf("sig still 0 after 5000 mutations (suspicious)")
	}
}

// TestProbeDoesNotChangeSig pins the perf contract: the hit path does
// no digest work and LRU refreshes leave the signature untouched.
func TestProbeDoesNotChangeSig(t *testing.T) {
	c := NewCache(sigCacheCfg())
	c.Fill(7, Shared)
	before := c.StateSig()
	for i := 0; i < 10; i++ {
		c.Probe(7)
		c.Probe(99) // miss
		c.GetState(7)
	}
	if c.StateSig() != before {
		t.Fatalf("probe/getstate changed sig: %x -> %x", before, c.StateSig())
	}
}

func TestSigDistinguishesStateAndDirty(t *testing.T) {
	a := NewCache(sigCacheCfg())
	b := NewCache(sigCacheCfg())
	a.Fill(7, Shared)
	b.Fill(7, Modified)
	if a.StateSig() == b.StateSig() {
		t.Fatalf("different coherence states, same sig")
	}
	b.SetState(7, Shared)
	if a.StateSig() != b.StateSig() {
		t.Fatalf("converged caches, different sigs: %x vs %x", a.StateSig(), b.StateSig())
	}
	b.SetDirty(7)
	if a.StateSig() == b.StateSig() {
		t.Fatalf("dirty bit invisible to sig")
	}
}

func TestSigSurvivesCloneAndSnooperClone(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 2
	nodes := []*NodeCaches{NewNodeCaches(cfg), NewNodeCaches(cfg)}
	s := NewSnooper(nodes)
	r := rng.New(9)
	for i := 0; i < 500; i++ {
		n := nodes[r.Intn(2)]
		n.L2.Fill(uint64(r.Intn(256)), Modified)
		n.L1D.Fill(uint64(r.Intn(256)), Shared)
		if r.Bool(0.3) {
			n.invalidateAll(uint64(r.Intn(256)))
		}
	}
	cp := s.Clone()
	ha, hb := digest.New(), digest.New()
	s.HashInto(&ha)
	cp.HashInto(&hb)
	if ha.Sum() != hb.Sum() {
		t.Fatalf("clone digest differs: %x vs %x", ha.Sum(), hb.Sum())
	}
	for ni, n := range s.Nodes {
		for _, pair := range [][2]*Cache{
			{n.L1I, cp.Nodes[ni].L1I},
			{n.L1D, cp.Nodes[ni].L1D},
			{n.L2, cp.Nodes[ni].L2},
		} {
			if pair[0].StateSig() != pair[1].StateSig() {
				t.Fatalf("node %d clone sig mismatch", ni)
			}
			if pair[1].StateSig() != pair[1].foldSig() {
				t.Fatalf("node %d clone sig inconsistent with fold", ni)
			}
		}
	}
	// Mutating the clone must not touch the original's sig.
	before := s.Nodes[0].L2.StateSig()
	cp.Nodes[0].L2.Fill(1<<27, Modified)
	if s.Nodes[0].L2.StateSig() != before {
		t.Fatalf("clone mutation leaked into original sig")
	}
}

func TestHashIntoCountersMatter(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 1
	a := NewSnooper([]*NodeCaches{NewNodeCaches(cfg)})
	b := NewSnooper([]*NodeCaches{NewNodeCaches(cfg)})
	ha, hb := digest.New(), digest.New()
	a.HashInto(&ha)
	b.HashInto(&hb)
	if ha.Sum() != hb.Sum() {
		t.Fatalf("fresh snoopers digest unequal")
	}
	b.Writebacks++
	ha, hb = digest.New(), digest.New()
	a.HashInto(&ha)
	b.HashInto(&hb)
	if ha.Sum() == hb.Sum() {
		t.Fatalf("writeback counter invisible to digest")
	}
}
