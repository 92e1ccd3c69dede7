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

// StateSig returns the cache's state signature: equal for two caches
// iff (with overwhelming probability) they hold the same lines in the
// same ways with the same coherence states and dirtiness. The first
// call on a cache — or on the clone lineage it belongs to, since clones
// copy the signature — folds it from the tag pages in O(lines); from
// then on the writes keep it current and a read is O(1). Either way it
// writes only the cache's own sig and sigLive, never a page, so a clone
// may read its signature while its frozen base is cloned elsewhere.
func (c *Cache) StateSig() uint64 {
	if !c.sigLive {
		c.sig, c.sigLive = c.foldSig(), true
	}
	return c.sig
}

// foldSig computes the signature from scratch, page by page with empty
// words skipped: what StateSig's first read starts from, and the ground
// truth tests hold every later read to after arbitrary operations.
func (c *Cache) foldSig() uint64 {
	var sig uint64
	per := c.assoc << c.tagPl.shift // lines per tag page; the rest is padding
	for p, pg := range c.tags {
		for j, word := range pg[:per] {
			if word != 0 {
				sig ^= lineSig(p*per+j, uint64(word))
			}
		}
	}
	return sig
}

// HashInto folds the node's three cache signatures into h.
func (n *NodeCaches) HashInto(h *digest.Hash) {
	h.U64(n.L1I.StateSig())
	h.U64(n.L1D.StateSig())
	h.U64(n.L2.StateSig())
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
