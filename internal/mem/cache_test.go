package mem

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"varsim/internal/config"
	"varsim/internal/rng"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B = 512B.
	return NewCache(config.CacheConfig{SizeBytes: 512, Assoc: 2, BlockBits: 6})
}

func TestCacheHitMiss(t *testing.T) {
	c := smallCache()
	if st := c.Probe(1); st != Invalid {
		t.Fatal("cold probe should miss")
	}
	c.Fill(1, Shared)
	if st := c.Probe(1); st != Shared {
		t.Fatalf("probe after fill = %v", st)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache() // 2 ways
	// Blocks 0, 4, 8 map to set 0 (4 sets).
	c.Fill(0, Shared)
	c.Fill(4, Shared)
	c.Probe(0) // make 0 most recent
	v, evicted := c.Fill(8, Shared)
	if !evicted || v.Block != 4 {
		t.Fatalf("expected eviction of block 4, got %+v evicted=%v", v, evicted)
	}
	if c.GetState(0) != Shared || c.GetState(8) != Shared || c.GetState(4) != Invalid {
		t.Fatal("post-eviction states wrong")
	}
}

// TestLRUOrderAcrossAssociativities: at every supported width, a full
// set gives up its lines in exactly least-recently-used order — through
// fills, re-fills, probe hits in a scrambled order, MRU re-hits and an
// invalidation in the middle of the order.
func TestLRUOrderAcrossAssociativities(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8, 16, config.MaxAssoc} {
		const sets = 4
		c := NewCache(config.CacheConfig{SizeBytes: sets * assoc * 64, Assoc: assoc, BlockBits: 6})
		blk := func(i int) uint64 { return uint64(i)*sets + 1 } // all in set 1
		for i := 0; i < assoc; i++ {
			if _, evicted := c.Fill(blk(i), Shared); evicted {
				t.Fatalf("assoc %d: fill %d of an unfilled set evicted", assoc, i)
			}
		}
		// Touch in a scrambled order (a stride coprime with assoc visits
		// every way once), re-hitting each line while it is MRU.
		stride := 1
		if assoc > 2 {
			stride = assoc/2 + 1
		}
		var order []int
		for k := 0; k < assoc; k++ {
			i := k * stride % assoc
			if c.Probe(blk(i)) != Shared || c.Probe(blk(i)) != Shared {
				t.Fatalf("assoc %d: block %d missed", assoc, i)
			}
			order = append(order, i)
		}
		if assoc >= 4 {
			// Re-filling the middle of the order makes it MRU; dropping
			// another frees a way that the next fill must prefer to any
			// eviction.
			mid, gone := order[assoc/2], order[1]
			c.Fill(blk(mid), Modified)
			c.Invalidate(blk(gone))
			order = append(append(order[:assoc/2:assoc/2], order[assoc/2+1:]...), mid)
			order = append(order[:1:1], order[2:]...)
			if _, evicted := c.Fill(blk(assoc), Shared); evicted {
				t.Fatalf("assoc %d: fill evicted with a way free", assoc)
			}
			order = append(order, assoc)
		}
		for n, want := range order {
			v, evicted := c.Fill(blk(1000+n), Shared)
			if !evicted || v.Block != blk(want) {
				t.Fatalf("assoc %d: eviction %d took block %d (evicted=%v), want %d — order %v",
					assoc, n, v.Block, evicted, blk(want), order)
			}
		}
		if c.Evictions != uint64(len(order)) {
			t.Fatalf("assoc %d: %d evictions, want %d", assoc, c.Evictions, len(order))
		}
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	dm := NewCache(config.CacheConfig{SizeBytes: 256, Assoc: 1, BlockBits: 6}) // 4 sets
	dm.Fill(0, Shared)
	v, evicted := dm.Fill(4, Shared)
	if !evicted || v.Block != 0 {
		t.Fatal("direct-mapped cache must evict on conflict")
	}
}

func TestAssociativityReducesConflicts(t *testing.T) {
	// Same capacity, different ways: a 2-block working set that conflicts
	// direct-mapped must co-reside 2-way.
	dm := NewCache(config.CacheConfig{SizeBytes: 512, Assoc: 1, BlockBits: 6}) // 8 sets
	sa := NewCache(config.CacheConfig{SizeBytes: 512, Assoc: 2, BlockBits: 6}) // 4 sets
	dmMisses, saMisses := 0, 0
	for i := 0; i < 100; i++ {
		for _, b := range []uint64{0, 8} { // conflict in dm (8 sets), not in sa? 8%4=0, 0%4=0 conflict too but 2 ways fit both
			if dm.Probe(b) == Invalid {
				dm.Fill(b, Shared)
				dmMisses++
			}
			if sa.Probe(b) == Invalid {
				sa.Fill(b, Shared)
				saMisses++
			}
		}
	}
	if saMisses != 2 {
		t.Fatalf("2-way should only cold-miss twice, got %d", saMisses)
	}
	if dmMisses != 200 {
		t.Fatalf("direct-mapped should thrash (200 misses), got %d", dmMisses)
	}
}

func TestFillExistingUpdatesState(t *testing.T) {
	c := smallCache()
	c.Fill(3, Shared)
	v, evicted := c.Fill(3, Modified)
	if evicted {
		t.Fatalf("re-fill evicted %+v", v)
	}
	if c.GetState(3) != Modified {
		t.Fatal("re-fill did not update state")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Fill(5, Modified)
	c.SetDirty(5)
	prior, dirty := c.Invalidate(5)
	if prior != Modified || !dirty {
		t.Fatalf("invalidate returned %v dirty=%v", prior, dirty)
	}
	if c.GetState(5) != Invalid {
		t.Fatal("line still present after invalidate")
	}
	// Invalidating absent lines is harmless.
	prior, dirty = c.Invalidate(5)
	if prior != Invalid || dirty {
		t.Fatal("double invalidate should be a no-op")
	}
}

func TestSetStateInvalidRemovesLine(t *testing.T) {
	c := smallCache()
	c.Fill(2, Owned)
	c.SetState(2, Invalid)
	if c.GetState(2) != Invalid {
		t.Fatal("SetState(Invalid) did not remove line")
	}
	// Absent block: no-op.
	c.SetState(99, Modified)
	if c.GetState(99) != Invalid {
		t.Fatal("SetState on absent block created a line")
	}
}

// TestBlockRange: a line word holds blockBits of block number, and a
// block beyond them is never mistaken for the resident line it shares
// its low bits with — every read reports it absent, every write to it
// changes nothing — while Fill, which would have to store it, panics.
func TestBlockRange(t *testing.T) {
	for _, b := range []uint64{0, 5, 1<<blockBits - 1} {
		for _, alias := range []uint64{b | 1<<blockBits, b | 1<<40} {
			c := smallCache()
			c.Fill(b, Shared)
			c.SetDirty(b)
			c.Fill(b^4, Owned) // the set's other way (4 sets): the set is full
			before, sig := snapshotLines(c), c.StateSig()

			if st := c.Probe(alias); st != Invalid {
				t.Fatalf("Probe(%#x) = %v with block %#x resident", alias, st, b)
			}
			if st := c.GetState(alias); st != Invalid {
				t.Fatalf("GetState(%#x) = %v with block %#x resident", alias, st, b)
			}
			c.SetState(alias, Modified)
			c.SetState(alias, Invalid)
			c.SetDirty(alias)
			if prior, dirty := c.Invalidate(alias); prior != Invalid || dirty {
				t.Fatalf("Invalidate(%#x) = %v dirty=%v with block %#x resident", alias, prior, dirty, b)
			}
			if !linesEqual(snapshotLines(c), before) {
				t.Fatalf("operations on %#x changed the lines of block %#x's cache", alias, b)
			}
			if c.StateSig() != sig || sig != c.foldSig() {
				t.Fatalf("operations on %#x: sig %x, was %x, fold %x", alias, c.StateSig(), sig, c.foldSig())
			}
			if c.Hits != 0 || c.Misses != 1 || c.Evictions != 0 {
				t.Fatalf("operations on %#x: hits %d misses %d evictions %d, want the one probe miss",
					alias, c.Hits, c.Misses, c.Evictions)
			}

			func() {
				defer func() {
					want := fmt.Sprintf("%#x", alias)
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
						t.Fatalf("Fill(%#x) panicked with %q, want the block named", alias, msg)
					}
				}()
				c.Fill(alias, Shared)
				t.Fatalf("Fill(%#x) did not panic", alias)
			}()
			if !linesEqual(snapshotLines(c), before) || c.StateSig() != sig {
				t.Fatalf("the refused Fill(%#x) changed the cache", alias)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := smallCache()
	c.Fill(1, Shared)
	cp := c.Clone()
	cp.Fill(1, Modified)
	if c.GetState(1) != Shared {
		t.Fatal("clone mutation leaked into original")
	}
}

// Property: a cache never holds two lines with the same tag, and never
// holds more than assoc lines per set.
func TestCacheStructuralInvariants(t *testing.T) {
	if err := quick.Check(func(seed uint64, nOps uint16) bool {
		c := smallCache()
		r := rng.New(seed)
		for i := 0; i < int(nOps%500); i++ {
			b := uint64(r.Intn(32))
			switch r.Intn(3) {
			case 0:
				c.Probe(b)
			case 1:
				c.Fill(b, State(1+r.Intn(3)))
			case 2:
				c.Invalidate(b)
			}
		}
		// Check: no duplicate tags among valid lines within a set.
		for set := 0; set < c.Sets(); set++ {
			seen := map[uint64]bool{}
			for w := 0; w < c.Assoc(); w++ {
				ln := viewAt(c, set*c.Assoc()+w)
				if ln.state == Invalid {
					continue
				}
				if int(ln.tag)%c.Sets() != set {
					return false // line in wrong set
				}
				if seen[ln.tag] {
					return false // duplicate
				}
				seen[ln.tag] = true
			}
			if c.recency(set) == nil {
				return false // ranks of the valid ways are not 1..n
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStateHelpers(t *testing.T) {
	if Shared.CanWrite() || Owned.CanWrite() || !Modified.CanWrite() {
		t.Error("CanWrite wrong")
	}
	if Shared.IsOwner() || !Owned.IsOwner() || !Modified.IsOwner() {
		t.Error("IsOwner wrong")
	}
	for _, s := range []State{Invalid, Shared, Owned, Modified} {
		if s.String() == "?" {
			t.Error("missing State name")
		}
	}
}
