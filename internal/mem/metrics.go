package mem

import "varsim/internal/metrics"

// RegisterMetrics registers the coherence-protocol counters and the
// node-aggregated cache hierarchy counters into reg. Per-level accesses
// (hits+misses) are registered alongside misses so per-interval miss
// rates fall out of a Ratio over the sampled series.
func (s *Snooper) RegisterMetrics(reg *metrics.Registry) {
	sum := func(pick func(*NodeCaches) *Cache, read func(*Cache) uint64) func() uint64 {
		return func() (n uint64) {
			for _, nd := range s.Nodes {
				n += read(pick(nd))
			}
			return
		}
	}
	for _, lvl := range []struct {
		name string
		pick func(*NodeCaches) *Cache
	}{
		{"mem.l1i", func(n *NodeCaches) *Cache { return n.L1I }},
		{"mem.l1d", func(n *NodeCaches) *Cache { return n.L1D }},
		{"mem.l2", func(n *NodeCaches) *Cache { return n.L2 }},
	} {
		reg.CounterFunc(lvl.name+".hits", sum(lvl.pick, func(c *Cache) uint64 { return c.Hits }))
		reg.CounterFunc(lvl.name+".misses", sum(lvl.pick, func(c *Cache) uint64 { return c.Misses }))
		reg.CounterFunc(lvl.name+".accesses", sum(lvl.pick, func(c *Cache) uint64 { return c.Hits + c.Misses }))
		reg.CounterFunc(lvl.name+".evictions", sum(lvl.pick, func(c *Cache) uint64 { return c.Evictions }))
	}
	reg.CounterFunc("snoop.cache_to_cache", func() uint64 { return s.CacheToCache })
	reg.CounterFunc("snoop.mem_fetches", func() uint64 { return s.MemFetches })
	reg.CounterFunc("snoop.upgrades", func() uint64 { return s.Upgrades })
	reg.CounterFunc("snoop.invalidations", func() uint64 { return s.Invals })
	reg.CounterFunc("snoop.writebacks", func() uint64 { return s.Writebacks })
}

// Misses returns the misses of every node's L1I, L1D and L2, summed per
// level — the fold the mem.l1i/l1d/l2.misses instruments make, in one
// pass: what a machine's Result counts.
func (s *Snooper) Misses() (l1i, l1d, l2 uint64) {
	for _, n := range s.Nodes {
		l1i += n.L1I.Misses
		l1d += n.L1D.Misses
		l2 += n.L2.Misses
	}
	return l1i, l1d, l2
}
