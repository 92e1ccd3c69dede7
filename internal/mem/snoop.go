package mem

import "varsim/internal/config"

// AccessKind distinguishes the three request flavours a node can put on
// the snooping interconnect.
type AccessKind uint8

const (
	// GetS requests a readable copy.
	GetS AccessKind = iota
	// GetX requests an exclusive (writable) copy, invalidating others.
	GetX
	// PutM writes a dirty victim back to memory; no response needed.
	PutM
)

func (k AccessKind) String() string {
	switch k {
	case GetS:
		return "GetS"
	case GetX:
		return "GetX"
	case PutM:
		return "PutM"
	}
	return "?"
}

// Supplier says where the data for a granted request comes from.
type Supplier uint8

const (
	FromMemory Supplier = iota
	FromCache           // cache-to-cache transfer from an Owned/Modified peer
	NoData              // upgrade: requester already holds valid data
)

// NodeCaches groups the three caches of one node.
type NodeCaches struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// NewNodeCaches builds a node's caches from the system configuration.
func NewNodeCaches(cfg config.Config) *NodeCaches {
	return &NodeCaches{
		L1I: NewCache(cfg.L1I),
		L1D: NewCache(cfg.L1D),
		L2:  NewCache(cfg.L2),
	}
}

// Clone copies the node's caches copy-on-write (see Cache.Clone).
func (n *NodeCaches) Clone() *NodeCaches {
	return &NodeCaches{L1I: n.L1I.Clone(), L1D: n.L1D.Clone(), L2: n.L2.Clone()}
}

// Freeze revokes page ownership in all three caches (see Cache.Freeze).
func (n *NodeCaches) Freeze() {
	n.L1I.Freeze()
	n.L1D.Freeze()
	n.L2.Freeze()
}

// Materialize forces full ownership in all three caches.
func (n *NodeCaches) Materialize() {
	n.L1I.Materialize()
	n.L1D.Materialize()
	n.L2.Materialize()
}

// Level says where a node's hierarchy served a reference.
type Level uint8

const (
	// Missed: the reference needs the bus — the block is absent, or held
	// without the permission a write needs.
	Missed Level = iota
	HitL1
	HitL2
)

// Lookup resolves one reference to block inside the node, through l1 (the
// node's L1I or L1D): the L1 probe, then the L2, where permission lives.
// An L2 hit fills l1; a write the L2 state permits marks the l1 line
// dirty — a line the write brings in goes in dirty, with the one tag
// write that places it — and takes Exclusive to Modified silently, with
// no bus transaction. On Missed no line's presence, state or dirtiness
// has changed (probes still count, and refresh the LRU of what they
// find), so the caller's retry after the grant starts from the same
// place.
func (n *NodeCaches) Lookup(l1 *Cache, block uint64, write bool) Level {
	level := HitL1
	var st State
	if l1.Probe(block) == Invalid {
		level, st = HitL2, n.L2.Probe(block)
	} else if write {
		st = n.L2.GetState(block)
	} else {
		return HitL1
	}
	if st == Invalid || write && !st.CanWrite() {
		return Missed
	}
	if level == HitL2 {
		// The L1 probe just missed, and the L2 holds the block, so it is
		// absent from l1 and within a line word's range.
		word := uint32(block)<<tagShift | uint32(Shared)
		if write {
			word |= dirtyBit
		}
		l1.insert(block, word)
	} else if write {
		l1.SetDirty(block)
	}
	if write && st == Exclusive {
		n.L2.SetState(block, Modified)
	}
	return level
}

// invalidateAll removes block from L2 and (for inclusion) both L1s.
func (n *NodeCaches) invalidateAll(block uint64) {
	n.L2.Invalidate(block)
	n.L1I.Invalidate(block)
	n.L1D.Invalidate(block)
}

// Protocol selects the invalidation-based snooping protocol.
type Protocol uint8

const (
	// MOSI (the paper's protocol): a dirty line is supplied
	// cache-to-cache and its owner downgrades M->O, keeping the dirty
	// data out of memory across read sharing.
	MOSI Protocol = iota
	// MESI: read misses with no other sharers install Exclusive (silent
	// E->M upgrade on a later write); a dirty line supplying a read is
	// written back and everyone holds S.
	MESI
)

func (p Protocol) String() string {
	if p == MESI {
		return "MESI"
	}
	return "MOSI"
}

// Snooper implements the coherence state transitions at the snooping
// point. All state changes happen at bus-grant time, which serializes
// requests: this is the atomic-bus idealization of the protocol, with
// the transient-state cases of a real implementation resolved by
// re-evaluating the requester's state at the serialization point.
type Snooper struct {
	Nodes    []*NodeCaches
	Protocol Protocol

	// Statistics.
	CacheToCache uint64
	MemFetches   uint64
	Upgrades     uint64
	Invals       uint64
	Writebacks   uint64
}

// NewSnooper wires a snooper over the given nodes (MOSI by default).
func NewSnooper(nodes []*NodeCaches) *Snooper {
	return &Snooper{Nodes: nodes}
}

// Clone copies the snooper and all node caches copy-on-write: every
// cache's pages are shared with the original and copied only when one
// side writes them (see Cache.Clone). Clone freezes any still-owned
// pages (a write); to clone concurrently, Freeze the snooper first.
func (s *Snooper) Clone() *Snooper { return s.CloneOver(nil) }

// CloneOver is Clone built in the storage of spent, a snooper nothing
// will use again (nil for none): its structs and page tables are
// overwritten and the pages its caches own become the clone's spares
// (see Cache.CloneOver), so a clone taken over a finished one allocates
// nothing once the spare lists have filled. spent is the snooper
// returned, unless its node count differs from s's and it is dropped.
//
// Without a spent snooper the Cache/NodeCaches structs are built in a
// single arena — the hierarchy is snapshotted once per branched run, so
// the clone path is allocation-count-sensitive (TestAllocationBudgets
// in internal/machine; the benchmark spine's machine.snapshot_kb).
func (s *Snooper) CloneOver(spent *Snooper) *Snooper {
	nNodes := len(s.Nodes)
	if spent == nil || len(spent.Nodes) != nNodes {
		var (
			nodes  = make([]NodeCaches, nNodes)
			caches = make([]Cache, 3*nNodes)
		)
		spent = &Snooper{Nodes: make([]*NodeCaches, nNodes)}
		for i := range nodes {
			c := caches[3*i : 3*i+3]
			nodes[i] = NodeCaches{L1I: &c[0], L1D: &c[1], L2: &c[2]}
			spent.Nodes[i] = &nodes[i]
		}
	}
	nodes := spent.Nodes
	*spent = *s
	spent.Nodes = nodes
	for i, n := range s.Nodes {
		n.L1I.CloneOver(nodes[i].L1I)
		n.L1D.CloneOver(nodes[i].L1D)
		n.L2.CloneOver(nodes[i].L2)
	}
	return spent
}

// Freeze revokes page ownership across the whole hierarchy, making the
// snooper safe to Clone from several goroutines at once: a frozen
// snooper's Clone performs no writes. O(caches), not O(lines).
func (s *Snooper) Freeze() {
	for _, n := range s.Nodes {
		n.Freeze()
	}
}

// Materialize forces every cache to own every page — the deep-copy
// endpoint used to price copy-on-write branching against eager cloning.
func (s *Snooper) Materialize() {
	for _, n := range s.Nodes {
		n.Materialize()
	}
}

// CacheCounts returns the misses of every node's L1I, L1D and L2,
// summed per level, and the L2 accesses (hits + misses), in one pass:
// what a machine's Result and its interval series count.
func (s *Snooper) CacheCounts() (l1iMisses, l1dMisses, l2Misses, l2Accesses uint64) {
	for _, n := range s.Nodes {
		l1iMisses += n.L1I.Misses
		l1dMisses += n.L1D.Misses
		l2Misses += n.L2.Misses
		l2Accesses += n.L2.Hits + n.L2.Misses
	}
	return l1iMisses, l1dMisses, l2Misses, l2Accesses
}

// GrantResult describes the outcome of processing one bus request.
type GrantResult struct {
	Source Supplier
	// VictimWriteback is set when filling the requester displaced a dirty
	// (Owned/Modified) L2 line that must be written back to memory.
	VictimWriteback bool
	VictimBlock     uint64
}

// Grant performs the MOSI transition for a request from node cpu for the
// given block and returns where the data comes from. For PutM it only
// accounts the writeback. The requester's L2 (and L1D/L1I for
// instruction fetches; the caller refills L1 separately) is updated.
func (s *Snooper) Grant(cpu int, block uint64, kind AccessKind) GrantResult {
	if kind == PutM {
		s.Writebacks++
		return GrantResult{Source: FromMemory}
	}
	req := s.Nodes[cpu]
	var res GrantResult

	// Snoop the peers.
	ownerFound := false
	sharersFound := false
	for i, n := range s.Nodes {
		if i == cpu {
			continue
		}
		st := n.L2.GetState(block)
		if st == Invalid {
			continue
		}
		sharersFound = true
		switch kind {
		case GetS:
			if st.IsOwner() {
				ownerFound = true
				switch s.Protocol {
				case MOSI:
					// The owner keeps supplying; M degrades to O.
					if st == Modified {
						n.L2.SetState(block, Owned)
					}
				case MESI:
					// Dirty data goes back to memory; everyone ends S.
					if st == Modified {
						s.Writebacks++
					}
					n.L2.SetState(block, Shared)
				}
			}
		case GetX:
			if st.IsOwner() {
				ownerFound = true
			}
			n.invalidateAll(block)
			s.Invals++
		default:
			// PutM returned above; anything else is queue corruption.
			panic("mem: unhandled access kind in peer snoop")
		}
	}

	// Requester-side transition, evaluated at the serialization point.
	cur := req.L2.GetState(block)
	switch kind {
	case GetS:
		if cur != Invalid {
			// Raced: a prior grant already gave us a readable copy.
			res.Source = NoData
			return res
		}
		newState := Shared
		if s.Protocol == MESI && !sharersFound {
			newState = Exclusive
		}
		if ownerFound {
			res.Source = FromCache
			s.CacheToCache++
		} else {
			res.Source = FromMemory
			s.MemFetches++
		}
		v, evicted := req.L2.Fill(block, newState)
		s.reclaimVictim(req, v, evicted, &res)
	case GetX:
		if cur == Modified {
			// Raced upgrade that already completed.
			res.Source = NoData
			return res
		}
		if cur != Invalid {
			// Upgrade: we hold data (S or O); only invalidations needed.
			req.L2.SetState(block, Modified)
			res.Source = NoData
			s.Upgrades++
			return res
		}
		if ownerFound {
			res.Source = FromCache
			s.CacheToCache++
		} else {
			res.Source = FromMemory
			s.MemFetches++
		}
		v, evicted := req.L2.Fill(block, Modified)
		s.reclaimVictim(req, v, evicted, &res)
	default:
		// PutM returned above; anything else is queue corruption.
		panic("mem: unhandled access kind at serialization point")
	}
	return res
}

// reclaimVictim enforces inclusion for an evicted L2 line and flags dirty
// writebacks.
func (s *Snooper) reclaimVictim(n *NodeCaches, v Victim, evicted bool, res *GrantResult) {
	if !evicted {
		return
	}
	// Inclusion: purge any L1 copies; a dirty L1 copy makes the victim
	// dirty regardless of its L2 state bookkeeping.
	_, d1 := n.L1I.Invalidate(v.Block)
	_, d2 := n.L1D.Invalidate(v.Block)
	if v.State.IsOwner() || d1 || d2 {
		res.VictimWriteback = true
		res.VictimBlock = v.Block
		s.Writebacks++
	}
}

// CheckInvariants verifies the MOSI single-writer/single-owner invariants
// for the given block set and returns the first violation description, or
// "". Used by property tests.
func (s *Snooper) CheckInvariants(blocks []uint64) string {
	for _, b := range blocks {
		owners, modified := 0, 0
		for i, n := range s.Nodes {
			st := n.L2.GetState(b)
			if st.IsOwner() {
				owners++
			}
			if st == Modified || st == Exclusive {
				modified++
				// A Modified/Exclusive copy must be the only valid copy.
				for j, m := range s.Nodes {
					if j != i && m.L2.GetState(b) != Invalid {
						return "exclusive copy coexists with another valid copy"
					}
				}
			}
			if st == Owned && s.Protocol == MESI {
				return "Owned state under MESI"
			}
			if st == Exclusive && s.Protocol == MOSI {
				return "Exclusive state under MOSI"
			}
		}
		if owners > 1 {
			return "multiple owners for one block"
		}
		if modified > 1 {
			return "multiple modified/exclusive copies"
		}
	}
	return ""
}
