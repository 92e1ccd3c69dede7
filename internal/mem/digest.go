package mem

import "varsim/internal/digest"

// lineSig is a line's contribution to the cache's XOR-fold signature:
// a well-mixed function of (way, tag, state, dirty), taken from its
// packed word. i is the line's set-major global index (set*assoc + way)
// — the index the flat pre-paging slab used, so neither paging the slab
// nor packing the line changed any signature bit. Invalid lines
// contribute 0, so an empty cache's signature is 0 and a line's
// insert/remove are exact XOR inverses. LRU is excluded on purpose —
// see the sig field's comment.
func lineSig(i int, word uint64) uint64 {
	if word == 0 {
		return 0
	}
	h := uint64(14695981039346656037)
	h = (h ^ uint64(i)) * 1099511628211
	h = (h ^ word>>tagShift) * 1099511628211
	h = (h ^ (word&stateMask<<1 | word&dirtyBit>>3)) * 1099511628211
	return digest.Mix64(h)
}

// StateSig returns the cache's incremental state signature: equal for
// two caches iff (with overwhelming probability) they hold the same
// lines in the same ways with the same coherence states and dirtiness.
func (c *Cache) StateSig() uint64 { return c.sig }

// foldSig recomputes the signature from scratch — the ground truth the
// incremental sig must track; tests assert they agree after arbitrary
// operation sequences.
func (c *Cache) foldSig() uint64 {
	var sig uint64
	for i := 0; i < c.sets*c.assoc; i++ {
		sig ^= lineSig(i, c.wordAt(i))
	}
	return sig
}

// HashInto folds the node's three cache signatures into h.
func (n *NodeCaches) HashInto(h *digest.Hash) {
	h.U64(n.L1I.sig)
	h.U64(n.L1D.sig)
	h.U64(n.L2.sig)
}

// HashInto folds the full hierarchy state into h: every node's cache
// signatures plus the coherence traffic counters. The counters are not
// cache *state*, but any difference in them witnesses a trajectory
// fork, and including them catches divergence that line signatures
// alone would only surface at the next state-visible transition.
func (s *Snooper) HashInto(h *digest.Hash) {
	for _, n := range s.Nodes {
		n.HashInto(h)
	}
	h.U64(s.CacheToCache)
	h.U64(s.MemFetches)
	h.U64(s.Upgrades)
	h.U64(s.Invals)
	h.U64(s.Writebacks)
}
