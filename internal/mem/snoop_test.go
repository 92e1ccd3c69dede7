package mem

import (
	"fmt"
	"testing"
	"testing/quick"

	"varsim/internal/config"
	"varsim/internal/rng"
)

func newSystem(n int) *Snooper {
	cfg := config.Default()
	cfg.NumCPUs = n
	nodes := make([]*NodeCaches, n)
	for i := range nodes {
		nodes[i] = NewNodeCaches(cfg)
	}
	return NewSnooper(nodes)
}

// TestLookupTable holds NodeCaches.Lookup in isolation, every cell of
// {L1 absent, present} x {L2 I, S, E, O, M} x {read, write}, through
// either L1: the level returned, the L2 state after (E->M on a write
// the state permits, otherwise unchanged), the L1 line's presence and
// dirtiness after, and that a miss changed no line anywhere in the node.
// (L1 present over L2 Invalid breaks inclusion and never arises in a
// run; the walk still has to answer it: a read hits, a write misses.)
func TestLookupTable(t *testing.T) {
	const block = 0x155
	cells := []struct {
		inL1        bool
		l2          State
		read, write Level
	}{
		{false, Invalid, Missed, Missed},
		{false, Shared, HitL2, Missed},
		{false, Exclusive, HitL2, HitL2},
		{false, Owned, HitL2, Missed},
		{false, Modified, HitL2, HitL2},
		{true, Invalid, HitL1, Missed},
		{true, Shared, HitL1, Missed},
		{true, Exclusive, HitL1, HitL1},
		{true, Owned, HitL1, Missed},
		{true, Modified, HitL1, HitL1},
	}
	for _, c := range cells {
		for _, write := range []bool{false, true} {
			for _, ifetch := range []bool{false, true} {
				n := NewNodeCaches(config.Default())
				l1, other := n.L1D, n.L1I
				if ifetch {
					l1, other = n.L1I, n.L1D
				}
				if c.l2 != Invalid {
					n.L2.Fill(block, c.l2)
				}
				if c.inL1 {
					l1.Fill(block, Shared)
				}
				sigs := [3]uint64{l1.StateSig(), other.StateSig(), n.L2.StateSig()}
				want, wantL2 := c.read, c.l2
				if write {
					want = c.write
					if want != Missed && c.l2 == Exclusive {
						wantL2 = Modified
					}
				}

				got := n.Lookup(l1, block, write)
				cell := fmt.Sprintf("inL1=%v L2=%v write=%v ifetch=%v", c.inL1, c.l2, write, ifetch)
				if got != want {
					t.Errorf("%s: Lookup = %d, want %d", cell, got, want)
				}
				if st := n.L2.GetState(block); st != wantL2 {
					t.Errorf("%s: L2 state after = %v, want %v", cell, st, wantL2)
				}
				if now := [3]uint64{l1.StateSig(), other.StateSig(), n.L2.StateSig()}; got == Missed && now != sigs {
					t.Errorf("%s: a miss changed a line: signatures %x -> %x", cell, sigs, now)
				}
				if other.GetState(block) != Invalid {
					t.Errorf("%s: the other L1 was filled", cell)
				}
				prior, dirty := l1.Invalidate(block)
				if present := prior != Invalid; present != (c.inL1 || want != Missed) {
					t.Errorf("%s: L1 present after = %v", cell, present)
				}
				if dirty != (write && want != Missed) {
					t.Errorf("%s: L1 dirty after = %v", cell, dirty)
				}
			}
		}
	}
}

func TestGetSFromMemory(t *testing.T) {
	s := newSystem(4)
	res := s.Grant(0, 100, GetS)
	if res.Source != FromMemory {
		t.Fatalf("cold GetS source = %v", res.Source)
	}
	if s.Nodes[0].L2.GetState(100) != Shared {
		t.Fatal("requester should be Shared")
	}
}

func TestGetXThenGetSIsCacheToCache(t *testing.T) {
	s := newSystem(4)
	s.Grant(0, 100, GetX)
	if s.Nodes[0].L2.GetState(100) != Modified {
		t.Fatal("writer should be Modified")
	}
	res := s.Grant(1, 100, GetS)
	if res.Source != FromCache {
		t.Fatalf("GetS to modified line should be cache-to-cache, got %v", res.Source)
	}
	if s.Nodes[0].L2.GetState(100) != Owned {
		t.Fatalf("MOSI: previous M should be Owned, got %v", s.Nodes[0].L2.GetState(100))
	}
	if s.Nodes[1].L2.GetState(100) != Shared {
		t.Fatal("reader should be Shared")
	}
	// Second reader: the Owned copy keeps supplying.
	res = s.Grant(2, 100, GetS)
	if res.Source != FromCache {
		t.Fatal("O state should keep supplying cache-to-cache")
	}
}

func TestGetXInvalidatesAll(t *testing.T) {
	s := newSystem(4)
	s.Grant(0, 7, GetS)
	s.Grant(1, 7, GetS)
	s.Grant(2, 7, GetS)
	res := s.Grant(3, 7, GetX)
	if res.Source != FromMemory {
		t.Fatalf("GetX with only S copies fetches from memory, got %v", res.Source)
	}
	for i := 0; i < 3; i++ {
		if s.Nodes[i].L2.GetState(7) != Invalid {
			t.Fatalf("node %d not invalidated", i)
		}
	}
	if s.Nodes[3].L2.GetState(7) != Modified {
		t.Fatal("writer not Modified")
	}
}

func TestUpgrade(t *testing.T) {
	s := newSystem(4)
	s.Grant(0, 9, GetS)
	s.Grant(1, 9, GetS)
	res := s.Grant(0, 9, GetX)
	if res.Source != NoData {
		t.Fatalf("upgrade from S should carry no data, got %v", res.Source)
	}
	if s.Nodes[0].L2.GetState(9) != Modified || s.Nodes[1].L2.GetState(9) != Invalid {
		t.Fatal("upgrade transition wrong")
	}
	if s.Upgrades != 1 {
		t.Fatalf("upgrade counter = %d", s.Upgrades)
	}
}

func TestGetXFromOwnedPeer(t *testing.T) {
	s := newSystem(3)
	s.Grant(0, 5, GetX) // 0: M
	s.Grant(1, 5, GetS) // 0: O, 1: S
	res := s.Grant(2, 5, GetX)
	if res.Source != FromCache {
		t.Fatalf("owner should supply on GetX, got %v", res.Source)
	}
	if st := s.Nodes[2].L2.GetState(5); st != Modified {
		t.Fatalf("new owner should be node 2, which holds %v", st)
	}
	if s.Nodes[0].L2.GetState(5) != Invalid || s.Nodes[1].L2.GetState(5) != Invalid {
		t.Fatal("peers not invalidated on GetX")
	}
}

func TestRacedRequestsResolveAtGrant(t *testing.T) {
	s := newSystem(2)
	// Node 0 already got the line between node 0's issue and grant (e.g.
	// a merged request); a second GetS grant must be a no-op with NoData.
	s.Grant(0, 11, GetS)
	res := s.Grant(0, 11, GetS)
	if res.Source != NoData {
		t.Fatalf("redundant GetS should be NoData, got %v", res.Source)
	}
	// GetX re-grant when already Modified.
	s.Grant(0, 11, GetX)
	res = s.Grant(0, 11, GetX)
	if res.Source != NoData {
		t.Fatalf("redundant GetX should be NoData, got %v", res.Source)
	}
}

func TestPutMCountsWriteback(t *testing.T) {
	s := newSystem(2)
	s.Grant(0, 1, PutM)
	if s.Writebacks != 1 {
		t.Fatal("PutM not accounted")
	}
}

func TestVictimWriteback(t *testing.T) {
	cfg := config.Default()
	cfg.NumCPUs = 2
	// Tiny L2: 1 set x 2 ways.
	cfg.L2 = config.CacheConfig{SizeBytes: 128, Assoc: 2, BlockBits: 6, HitNS: 20}
	cfg.L1I = config.CacheConfig{SizeBytes: 128, Assoc: 2, BlockBits: 6}
	cfg.L1D = config.CacheConfig{SizeBytes: 128, Assoc: 2, BlockBits: 6}
	nodes := []*NodeCaches{NewNodeCaches(cfg), NewNodeCaches(cfg)}
	s := NewSnooper(nodes)
	s.Grant(0, 0, GetX) // M
	s.Grant(0, 1, GetS)
	res := s.Grant(0, 2, GetS) // evicts LRU = block 0 (Modified)
	if !res.VictimWriteback || res.VictimBlock != 0 {
		t.Fatalf("expected dirty victim writeback of block 0, got %+v", res)
	}
	// Inclusion: L1 copies of the victim must be gone.
	if nodes[0].L1D.GetState(0) != Invalid {
		t.Fatal("L1 inclusion violated")
	}
}

func TestInclusionOnRemoteInvalidate(t *testing.T) {
	s := newSystem(2)
	s.Grant(0, 3, GetS)
	s.Nodes[0].L1D.Fill(3, Shared) // L1 holds a copy
	s.Grant(1, 3, GetX)
	if s.Nodes[0].L1D.GetState(3) != Invalid {
		t.Fatal("remote GetX must invalidate L1 copies too")
	}
}

// Property test: under random request streams, MOSI invariants hold:
// at most one owner, a Modified copy is the only valid copy.
func TestMOSIInvariants(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := newSystem(4)
		r := rng.New(seed)
		blocks := []uint64{0, 1, 2, 3, 17, 33}
		for i := 0; i < 400; i++ {
			cpu := r.Intn(4)
			b := blocks[r.Intn(len(blocks))]
			kind := GetS
			if r.Bool(0.4) {
				kind = GetX
			}
			s.Grant(cpu, b, kind)
			if msg := s.CheckInvariants(blocks); msg != "" {
				t.Logf("violation after %d ops: %s", i, msg)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSnooperClone(t *testing.T) {
	s := newSystem(2)
	s.Grant(0, 1, GetX)
	cp := s.Clone()
	cp.Grant(1, 1, GetX)
	if s.Nodes[0].L2.GetState(1) != Modified {
		t.Fatal("clone mutation leaked into original snooper")
	}
	if cp.Nodes[0].L2.GetState(1) != Invalid {
		t.Fatal("clone did not apply its own transition")
	}
}

// TestSnooperCloneOver: a clone built over a spent snooper — one that
// NewSnooper made, then a clone of a clone, then one with another node
// count, which is dropped — carries the base's counters, protocol and
// line state and none of the spent snooper's, and is isolated from the
// base like any clone.
func TestSnooperCloneOver(t *testing.T) {
	base := newMESISystem(2)
	base.Grant(0, 1, GetX)
	base.Grant(1, 2, GetS)
	scribbled := func(n int) *Snooper {
		s := newSystem(n)
		for b := uint64(0); b < 300; b++ {
			s.Grant(int(b)%n, b, GetX)
		}
		return s
	}
	spent := scribbled(2)
	for gen, other := range []*Snooper{nil, nil, scribbled(3)} {
		cp := base.CloneOver(spent)
		if cp != spent {
			t.Fatalf("generation %d: the clone is not built in the spent snooper", gen)
		}
		if cp.Protocol != MESI || cp.MemFetches != base.MemFetches || cp.Invals != base.Invals {
			t.Fatalf("generation %d: clone carries %v and %d fetches, base %v and %d", gen, cp.Protocol, cp.MemFetches, base.Protocol, base.MemFetches)
		}
		for i, n := range cp.Nodes {
			for _, c := range []struct{ got, want *Cache }{{n.L1I, base.Nodes[i].L1I}, {n.L1D, base.Nodes[i].L1D}, {n.L2, base.Nodes[i].L2}} {
				if !linesEqual(snapshotLines(c.got), snapshotLines(c.want)) || c.got.StateSig() != c.want.StateSig() || c.got.StateSig() != c.got.foldSig() {
					t.Fatalf("generation %d node %d: a cache differs from the base's", gen, i)
				}
			}
		}
		for b := uint64(0); b < 300; b++ {
			cp.Grant(int(b)%2, b+7, GetX) // the next generation's stale pages
		}
		if base.Nodes[0].L2.GetState(1) != Modified || base.Nodes[1].L2.GetState(2) != Exclusive {
			t.Fatalf("generation %d: clone writes reached the base", gen)
		}
		if other != nil {
			if got := base.CloneOver(other); got == other || len(got.Nodes) != 2 {
				t.Fatal("a spent snooper of another node count was built over")
			}
		}
	}
}

func TestAccessKindString(t *testing.T) {
	for _, k := range []AccessKind{GetS, GetX, PutM} {
		if k.String() == "?" {
			t.Error("missing AccessKind name")
		}
	}
}

func newMESISystem(n int) *Snooper {
	s := newSystem(n)
	s.Protocol = MESI
	return s
}

func TestMESIExclusiveOnSoleReader(t *testing.T) {
	s := newMESISystem(3)
	res := s.Grant(0, 5, GetS)
	if res.Source != FromMemory {
		t.Fatalf("source = %v", res.Source)
	}
	if st := s.Nodes[0].L2.GetState(5); st != Exclusive {
		t.Fatalf("sole reader state = %v, want E", st)
	}
	// Second reader: E supplies, both end Shared.
	res = s.Grant(1, 5, GetS)
	if res.Source != FromCache {
		t.Fatalf("E should supply cache-to-cache, got %v", res.Source)
	}
	if s.Nodes[0].L2.GetState(5) != Shared || s.Nodes[1].L2.GetState(5) != Shared {
		t.Fatal("after second read both must be Shared")
	}
}

func TestMESIDirtySupplyWritesBack(t *testing.T) {
	s := newMESISystem(2)
	s.Grant(0, 9, GetX)
	wbBefore := s.Writebacks
	res := s.Grant(1, 9, GetS)
	if res.Source != FromCache {
		t.Fatalf("M should supply, got %v", res.Source)
	}
	if s.Writebacks != wbBefore+1 {
		t.Fatal("MESI read of dirty line must write back to memory")
	}
	if s.Nodes[0].L2.GetState(9) != Shared {
		t.Fatalf("previous owner should be S, got %v", s.Nodes[0].L2.GetState(9))
	}
	if st := s.Nodes[1].L2.GetState(9); st != Shared {
		t.Fatalf("MESI has no owner after read sharing, but the reader holds %v", st)
	}
}

func TestMESINeverOwned(t *testing.T) {
	s := newMESISystem(4)
	r := rng.New(77)
	blocks := []uint64{1, 2, 3, 9}
	for i := 0; i < 500; i++ {
		kind := GetS
		if r.Bool(0.4) {
			kind = GetX
		}
		s.Grant(r.Intn(4), blocks[r.Intn(len(blocks))], kind)
		if msg := s.CheckInvariants(blocks); msg != "" {
			t.Fatalf("MESI invariant violated after %d ops: %s", i, msg)
		}
	}
}

func TestMOSINeverExclusive(t *testing.T) {
	s := newSystem(3)
	s.Grant(0, 4, GetS)
	if st := s.Nodes[0].L2.GetState(4); st != Shared {
		t.Fatalf("MOSI sole reader state = %v, want S", st)
	}
	if msg := s.CheckInvariants([]uint64{4}); msg != "" {
		t.Fatal(msg)
	}
}

func TestProtocolString(t *testing.T) {
	if MOSI.String() != "MOSI" || MESI.String() != "MESI" {
		t.Fatal("protocol names wrong")
	}
}

func TestExclusiveStateHelpers(t *testing.T) {
	if !Exclusive.CanWrite() || !Exclusive.IsOwner() {
		t.Fatal("Exclusive helpers wrong")
	}
	if Exclusive.String() != "E" {
		t.Fatal("Exclusive name wrong")
	}
}
