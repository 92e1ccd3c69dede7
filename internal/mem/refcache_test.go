package mem

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"varsim/internal/config"
	"varsim/internal/digest"
	"varsim/internal/rng"
)

// refCache is the array-of-structs cache the packed planes replaced,
// kept as the oracle of the differential tests: one 32-byte line per
// way, replacement by a global last-touch stamp, a flat slab that Clone
// deep-copies. It shares no code with Cache — its signature mix is
// written out again here — so agreement between the two is evidence
// about both.
type refLine struct {
	tag   uint64
	state State
	lru   uint64 // last-touch stamp; larger = more recent
	dirty bool
}

type refCache struct {
	lines   []refLine
	assoc   int
	sets    int
	stamp   uint64
	sig     uint64
	Hits    uint64
	Misses  uint64
	Evicted uint64
}

func newRefCache(cfg config.CacheConfig) *refCache {
	return &refCache{lines: make([]refLine, cfg.Sets()*cfg.Assoc), assoc: cfg.Assoc, sets: cfg.Sets()}
}

func (c *refCache) lineSig(i int) uint64 {
	ln := &c.lines[i]
	if ln.state == Invalid {
		return 0
	}
	h := uint64(14695981039346656037)
	h = (h ^ uint64(i)) * 1099511628211
	h = (h ^ ln.tag) * 1099511628211
	b := uint64(0)
	if ln.dirty {
		b = 1
	}
	h = (h ^ (uint64(ln.state)<<1 | b)) * 1099511628211
	return digest.Mix64(h)
}

func (c *refCache) foldSig() uint64 {
	var sig uint64
	for i := range c.lines {
		sig ^= c.lineSig(i)
	}
	return sig
}

func (c *refCache) find(block uint64) int {
	base := int(block%uint64(c.sets)) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.lines[i].state != Invalid && c.lines[i].tag == block {
			return i
		}
	}
	return -1
}

func (c *refCache) Probe(block uint64) State {
	if i := c.find(block); i >= 0 {
		c.stamp++
		c.lines[i].lru = c.stamp
		c.Hits++
		return c.lines[i].state
	}
	c.Misses++
	return Invalid
}

func (c *refCache) GetState(block uint64) State {
	if i := c.find(block); i >= 0 {
		return c.lines[i].state
	}
	return Invalid
}

func (c *refCache) SetState(block uint64, s State) {
	if i := c.find(block); i >= 0 {
		c.sig ^= c.lineSig(i)
		if s == Invalid {
			c.lines[i] = refLine{}
			return
		}
		c.lines[i].state = s
		c.sig ^= c.lineSig(i)
	}
}

func (c *refCache) SetDirty(block uint64) {
	if i := c.find(block); i >= 0 && !c.lines[i].dirty {
		c.sig ^= c.lineSig(i)
		c.lines[i].dirty = true
		c.sig ^= c.lineSig(i)
	}
}

func (c *refCache) Fill(block uint64, s State) (v Victim, evicted bool) {
	if i := c.find(block); i >= 0 {
		c.sig ^= c.lineSig(i)
		c.stamp++
		c.lines[i].state = s
		c.lines[i].lru = c.stamp
		c.sig ^= c.lineSig(i)
		return Victim{}, false
	}
	base := int(block%uint64(c.sets)) * c.assoc
	way := -1
	oldest := ^uint64(0)
	for i := base; i < base+c.assoc; i++ {
		if c.lines[i].state == Invalid {
			way, evicted = i, false
			break
		}
		if c.lines[i].lru < oldest {
			oldest, way, evicted = c.lines[i].lru, i, true
		}
	}
	if evicted {
		old := c.lines[way]
		v = Victim{Block: old.tag, State: old.state, Dirty: old.dirty}
		c.Evicted++
		c.sig ^= c.lineSig(way)
	}
	c.stamp++
	c.lines[way] = refLine{tag: block, state: s, lru: c.stamp}
	c.sig ^= c.lineSig(way)
	return v, evicted
}

func (c *refCache) Invalidate(block uint64) (prior State, dirty bool) {
	if i := c.find(block); i >= 0 {
		prior, dirty = c.lines[i].state, c.lines[i].dirty
		c.sig ^= c.lineSig(i)
		c.lines[i] = refLine{}
	}
	return prior, dirty
}

func (c *refCache) Clone() *refCache {
	cp := *c
	cp.lines = append([]refLine(nil), c.lines...)
	return &cp
}

// recency returns the valid ways of set in most-recent-first order.
func (c *refCache) recency(set int) []int {
	var ways []int
	for w := 0; w < c.assoc; w++ {
		if c.lines[set*c.assoc+w].state != Invalid {
			ways = append(ways, w)
		}
	}
	sort.Slice(ways, func(a, b int) bool {
		return c.lines[set*c.assoc+ways[a]].lru > c.lines[set*c.assoc+ways[b]].lru
	})
	return ways
}

// recency is the same order read off the packed cache's rank plane; it
// returns nil if the ranks of the valid ways are not exactly 1..n or an
// invalid way carries a rank.
func (c *Cache) recency(set int) []int {
	ways := make([]int, c.assoc)
	n := 0
	for w := 0; w < c.assoc; w++ {
		i := set*c.assoc + w
		r := int(c.rankAt(i))
		if (c.wordAt(i) == 0) != (r == 0) || r > c.assoc {
			return nil
		}
		if r > 0 {
			ways[r-1] = w + 1
			n++
		}
	}
	for _, w := range ways[:n] {
		if w == 0 {
			return nil // a rank below n is missing, so one is duplicated
		}
	}
	for i := range ways[:n] {
		ways[i]--
	}
	return ways[:n]
}

// TestEvictionMatchesReference holds the one-pass evicting fill to the
// reference's oldest-stamp victim at associativity 1, 2, 4 and 8. Every
// set is filled, the cache frozen and cloned, and the clone then takes
// nothing but full-set evictions, with probe hits between them to
// scramble the recency order: each victim must be the reference's, and
// after each the counters and the set's recency order must agree. The
// frozen base must still match its own reference at the end.
func TestEvictionMatchesReference(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("assoc%d", assoc), func(t *testing.T) {
			const sets = 64
			cfg := config.CacheConfig{SizeBytes: sets * assoc * 64, Assoc: assoc, BlockBits: 6}
			base, baseRef := NewCache(cfg), newRefCache(cfg)
			for b := uint64(0); b < sets*uint64(assoc); b++ {
				base.Fill(b, Shared)
				baseRef.Fill(b, Shared)
			}
			base.Freeze()
			c, ref := base.Clone(), baseRef.Clone()
			r := rng.New(uint64(assoc))
			next := uint64(sets * assoc) // the next block never yet filled
			for i := 0; i < 4000; i++ {
				set := uint64(r.Intn(sets))
				if r.Bool(0.5) {
					// Touch a resident line of the set, so the LRU way moves.
					rs := ref.recency(int(set))
					b := ref.lines[int(set)*assoc+rs[r.Intn(len(rs))]].tag
					if got, want := c.Probe(b), ref.Probe(b); got != want || got == Invalid {
						t.Fatalf("step %d: Probe(%d) = %v, reference %v", i, b, got, want)
					}
					continue
				}
				b := next - next%sets + sets + set
				next = b
				gv, ge := c.Fill(b, Modified)
				wv, we := ref.Fill(b, Modified)
				if !ge || gv != wv || ge != we {
					t.Fatalf("step %d: Fill(%d) = %+v %v, reference %+v %v", i, b, gv, ge, wv, we)
				}
				if c.Hits != ref.Hits || c.Misses != ref.Misses || c.Evictions != ref.Evicted {
					t.Fatalf("step %d: counters %d/%d/%d, reference %d/%d/%d", i, c.Hits, c.Misses, c.Evictions, ref.Hits, ref.Misses, ref.Evicted)
				}
				if got, want := c.recency(int(set)), ref.recency(int(set)); got == nil || !slices.Equal(got, want) {
					t.Fatalf("step %d: set %d recency %v, reference %v", i, set, got, want)
				}
			}
			if err := agree(c, ref); err != nil {
				t.Fatal(err)
			}
			if err := agree(base, baseRef); err != nil {
				t.Fatalf("frozen base: %v", err)
			}
		})
	}
}
