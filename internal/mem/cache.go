// Package mem models the cache hierarchy of the target system: per-node
// split L1 instruction/data caches and a unified L2, kept coherent with a
// MOSI invalidation-based snooping protocol (§3.2.1, §3.2.3 of the
// paper).
//
// The model is a timing/state model: it tracks tags, coherence states and
// LRU, not data contents. Coherence permission lives at the L2 (the
// snooping level); L1s track presence and dirtiness, with L1/L2
// inclusion maintained by invalidating L1 copies whenever their L2 line
// leaves the cache.
package mem

import (
	"fmt"
	"math"
	"math/bits"

	"varsim/internal/config"
)

// State is a coherence state. The protocol in use (MOSI or MESI, see
// Snooper.Protocol) determines which subset appears: MOSI uses
// I/S/O/M, MESI uses I/S/E/M.
type State uint8

const (
	Invalid State = iota
	Shared
	Owned
	Modified
	Exclusive // MESI only: sole clean copy; silently upgradable to M
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	case Exclusive:
		return "E"
	}
	return "?"
}

// CanWrite reports whether a local store may proceed in this state.
// Exclusive is writable via a silent E->M upgrade (no bus transaction),
// which NodeCaches.Lookup performs.
func (s State) CanWrite() bool { return s == Modified || s == Exclusive }

// IsOwner reports whether this cache must respond with data to remote
// requests.
func (s State) IsOwner() bool { return s == Owned || s == Modified || s == Exclusive }

// Line storage is two parallel copy-on-write planes. The tag plane holds
// one packed word per line; the replacement plane holds one recency-rank
// byte per line. Splitting them keeps the one write a read hit makes —
// the LRU refresh — off the tag pages, so a branch that re-reads what
// its checkpoint cached copies rank pages (1 byte/line) and never tag
// pages (4 bytes/line).
const (
	// A packed line word is block<<tagShift | dirty<<3 | state, 32 bits
	// wide. The zero word is an invalid line. The whole block number is
	// kept, set bits included, so nothing is reconstructed on the way
	// out; blockBits of 64-byte blocks reach 16 GB, and the workloads'
	// address space ends at 2 GB (workload/layout.go).
	stateMask = 7
	dirtyBit  = 8
	tagShift  = 4
	blockBits = 32 - tagShift

	// Both page kinds are 1 KiB: small enough that the first write
	// after a branch copies little, large enough that the page tables a
	// Clone copies stay a few KiB for the 4 MB L2 (256 + 64 pointers).
	tagPageLines  = 256
	rankPageLines = 1024
)

// A set never straddles a tag page and a rank fits its byte: both must
// hold for every associativity config.CacheConfig.Validate lets through.
var (
	_ [tagPageLines - config.MaxAssoc]struct{}
	_ [math.MaxUint8 - config.MaxAssoc]struct{}
)

type (
	tagPage  [tagPageLines]uint32
	rankPage [rankPageLines]uint8
)

// zeroTags and zeroRanks are the pages every cache starts on: all lines
// invalid, all ranks 0. Shared by every cache in the process and owned
// by none, they are never written; a cache's first write to a page
// copies it, as a branch's first write copies its checkpoint's.
var (
	zeroTags  tagPage
	zeroRanks rankPage
)

// plane locates a set inside one plane's pages: page p holds sets
// [p<<shift, (p+1)<<shift), each a contiguous run of assoc entries.
type plane struct {
	shift uint   // log2(sets per page)
	mask  uint64 // (sets per page) - 1
}

// newPlane picks the largest power-of-two sets-per-page whose ways fit
// pageLines, so a set never straddles a page and every page holds the
// same number of sets (sets is itself a power of two, enforced by
// Validate), and returns the resulting page count.
func newPlane(sets, assoc, pageLines int) (pl plane, npages int) {
	for 2<<pl.shift <= sets && (2<<pl.shift)*assoc <= pageLines {
		pl.shift++
	}
	pl.mask = 1<<pl.shift - 1
	return pl, sets >> pl.shift
}

// locate maps set to its page and the index of its first way within it.
func (pl plane) locate(set uint64, assoc int) (p, base int) {
	return int(set >> pl.shift), int(set&pl.mask) * assoc
}

// Cache is one set-associative cache array with true-LRU replacement.
//
// Replacement state is a recency rank per way within its set — 0 for an
// invalid way, 1 for the most recently used, up to the number of valid
// ways for the least — so a hit on the MRU way writes nothing at all.
//
// Clone shares every page of both planes copy-on-write: a clone copies
// the page tables (one pointer per page), not the lines, and the first
// mutation of a shared page copies just that page. A new cache shares
// the zero pages the same way. Ownership is one bit per page; Freeze
// revokes every ownership by clearing the bitmap.
//
// An owned page is referenced by this cache alone, which is what lets
// CloneOver hand a finished clone's owned pages on to the next clone as
// spares instead of leaving them to the collector.
type Cache struct {
	tags  []*tagPage
	ranks []*rankPage
	// owned bit p says tag page p is private to this cache and writable
	// in place; bit len(tags)+p says the same of rank page p.
	owned  []uint64
	frozen bool // no page materialized since the last Freeze
	// sigLive says sig is current (see sig); it fills frozen's padding.
	sigLive bool

	tagPl, rankPl plane

	assoc   int
	sets    int
	setMask uint64

	// sig is an XOR-fold over the valid lines' (way, tag, state, dirty)
	// tuples — the cache's contribution to interval state digests, and
	// read nowhere else. It is folded on first read: until StateSig is
	// first called sigLive is false, sig is unset and no write pays for
	// it; that call folds the tag pages once, in O(lines), and from then
	// on the state-changing sites (Fill, SetState, SetDirty, Invalidate)
	// keep it current, so every later read is O(1). A clone copies both
	// fields, so a lineage that digests pays the fold once, at its first
	// digest. An empty cache's sig is 0 because invalid lines contribute
	// nothing. Recency ranks and hit/miss counters are deliberately
	// excluded: a pure replacement-order difference is detected at the
	// next victim choice it changes, which keeps the hot Probe path free
	// of digest work.
	sig uint64

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64

	// Pages harvested by CloneOver, popped by ownTags/ownRanks in place
	// of an allocation. A spare holds stale lines until the pop
	// overwrites it whole; the lists are private to this cache and never
	// copied to a clone. They sit last so that the fields a probe reads
	// stay where they were, in the struct's first cache lines.
	spareTags  []*tagPage
	spareRanks []*rankPage
}

// NewCache builds a cache from its configuration. The configuration must
// be valid (see config.CacheConfig.Validate). The cache owns no page:
// every page of both planes is the shared zero page, and each is copied
// on its first write, so a new cache costs its page tables and what it
// writes, not its capacity.
func NewCache(cfg config.CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("mem: %v", err))
	}
	sets := cfg.Sets()
	tagPl, ntag := newPlane(sets, cfg.Assoc, tagPageLines)
	rankPl, nrank := newPlane(sets, cfg.Assoc, rankPageLines)
	c := &Cache{
		tags:    make([]*tagPage, ntag),
		ranks:   make([]*rankPage, nrank),
		owned:   make([]uint64, (ntag+nrank+63)/64),
		frozen:  true,
		tagPl:   tagPl,
		rankPl:  rankPl,
		assoc:   cfg.Assoc,
		sets:    sets,
		setMask: uint64(sets - 1),
	}
	for p := range c.tags {
		c.tags[p] = &zeroTags
	}
	for p := range c.ranks {
		c.ranks[p] = &zeroRanks
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// isOwned reports ownership bit i. Writers test it and call ownTags or
// ownRanks on false; the test is theirs so that it inlines and a write
// to a page already owned makes no call.
func (c *Cache) isOwned(i int) bool { return c.owned[i>>6]>>(i&63)&1 != 0 }

// claim sets ownership bit i.
func (c *Cache) claim(i int) {
	c.owned[i>>6] |= 1 << (i & 63)
	c.frozen = false
}

// ownTags materializes tag page p, which the cache does not own, for
// writing: the page, shared with an earlier snapshot generation or the
// zero page a new cache starts on, is replaced by a private copy. This
// is the lazy write-fault path of copy-on-write branching and of a new
// cache's first writes; it is pure in-memory copying (no locks, no
// goroutines), so branch trajectories stay deterministic regardless of
// which sibling touches a page first. The copy lands in a spare page
// when CloneOver left one — overwritten whole, so nothing of the
// spare's past is ever read — and in a new one otherwise, where
// appending onto nil spares the runtime zeroing a page that is about to
// be overwritten.
func (c *Cache) ownTags(p int) *tagPage {
	c.claim(p)
	var pg *tagPage
	if n := len(c.spareTags); n > 0 {
		pg, c.spareTags = c.spareTags[n-1], c.spareTags[:n-1]
		*pg = *c.tags[p]
	} else {
		pg = (*tagPage)(append([]uint32(nil), c.tags[p][:]...))
	}
	c.tags[p] = pg
	return pg
}

// ownRanks is ownTags for rank page p.
func (c *Cache) ownRanks(p int) *rankPage {
	c.claim(len(c.tags) + p)
	var pg *rankPage
	if n := len(c.spareRanks); n > 0 {
		pg, c.spareRanks = c.spareRanks[n-1], c.spareRanks[:n-1]
		*pg = *c.ranks[p]
	} else {
		pg = (*rankPage)(append([]uint8(nil), c.ranks[p][:]...))
	}
	c.ranks[p] = pg
	return pg
}

// Freeze revokes the cache's ownership of every page, making it safe
// to share them with clones: the next write to any page copies it
// first. One bitmap clear — a bit per page, not a scan of the pages. A
// new cache is born frozen, so freezing one that was never written
// clears nothing.
func (c *Cache) Freeze() {
	if c.frozen {
		return
	}
	clear(c.owned)
	c.frozen = true
}

// lookup returns the tag page holding block's set, the in-page index of
// the set's first way, and the way holding block, or -1 if absent. The
// page is for reading only; writers go through setWord.
func (c *Cache) lookup(block uint64) (pg *tagPage, base, w int) {
	p, base := c.tagPl.locate(block&c.setMask, c.assoc)
	pg = c.tags[p]
	for w := range c.assoc {
		// Equal tags leave exactly the state bits, 1..stateMask for a
		// valid line; anything else is a different tag or an empty way.
		// Compared in 64 bits: a block beyond blockBits keeps its high
		// bits through the XOR and so matches no line.
		if (uint64(pg[base+w]&^dirtyBit)^block<<tagShift)-1 < stateMask {
			return pg, base, w
		}
	}
	return pg, base, -1
}

// setWord stores nw into way w of block's set, materializing the tag
// page and, once sig has been read, folding the change into it.
func (c *Cache) setWord(block uint64, w int, nw uint32) {
	set := block & c.setMask
	p, base := c.tagPl.locate(set, c.assoc)
	pg := c.tags[p]
	if !c.isOwned(p) {
		pg = c.ownTags(p)
	}
	if c.sigLive {
		i := int(set)*c.assoc + w
		c.sig ^= lineSig(i, uint64(pg[base+w])) ^ lineSig(i, uint64(nw))
	}
	pg[base+w] = nw
}

// touch makes way w the most recently used of block's set. A way that
// is already MRU is left alone, so the re-hit copies and writes nothing.
func (c *Cache) touch(block uint64, w int) {
	p, base := c.rankPl.locate(block&c.setMask, c.assoc)
	if c.ranks[p][base+w] != 1 {
		c.promote(block, w)
	}
}

// promote gives way w of block's set rank 1: every valid way that was
// more recent ages by one.
func (c *Cache) promote(block uint64, w int) {
	p, base := c.rankPl.locate(block&c.setMask, c.assoc)
	pg := c.ranks[p]
	if !c.isOwned(len(c.tags) + p) {
		pg = c.ownRanks(p)
	}
	rs := pg[base : base+c.assoc]
	// Ranks 1..old-1 age. Taken minus one as unsigned, rank 0 (an
	// invalid way) wraps above every limit and never ages, and old == 0
	// (a new line) wraps to a limit every valid way is below. The
	// comparison feeds an add, not a branch: which ways are younger is
	// as good as random to the host's predictor.
	limit := uint(rs[w]) - 1
	for i, r := range rs {
		var age uint8
		if uint(r)-1 < limit {
			age = 1
		}
		rs[i] = r + age
	}
	rs[w] = 1
}

// Probe looks up block. On a hit it refreshes LRU and returns the state;
// on a miss it returns Invalid. Hit/miss counters are updated. The LRU
// refresh writes the rank plane only, and only if the line is not MRU
// already.
func (c *Cache) Probe(block uint64) State {
	pg, base, w := c.lookup(block)
	if w < 0 {
		c.Misses++
		return Invalid
	}
	c.Hits++
	// touch, spelled out (it is over the inlining budget): the hit on an
	// MRU line — most L1 hits — then makes no call at all.
	if p, rbase := c.rankPl.locate(block&c.setMask, c.assoc); c.ranks[p][rbase+w] != 1 {
		c.promote(block, w)
	}
	return State(pg[base+w] & stateMask)
}

// GetState returns the state of block without touching LRU or counters.
func (c *Cache) GetState(block uint64) State {
	if pg, base, w := c.lookup(block); w >= 0 {
		return State(pg[base+w] & stateMask)
	}
	return Invalid
}

// SetState changes the state of a resident block; it is a no-op if the
// block is absent (the caller may race with an eviction).
func (c *Cache) SetState(block uint64, s State) {
	if s == Invalid {
		c.Invalidate(block)
		return
	}
	if pg, base, w := c.lookup(block); w >= 0 {
		c.setWord(block, w, pg[base+w]&^stateMask|uint32(s))
	}
}

// SetDirty marks a resident block dirty (L1 bookkeeping).
func (c *Cache) SetDirty(block uint64) {
	if pg, base, w := c.lookup(block); w >= 0 && pg[base+w]&dirtyBit == 0 {
		c.setWord(block, w, pg[base+w]|dirtyBit)
	}
}

// Victim describes a line displaced by Fill.
type Victim struct {
	Block uint64
	State State
	Dirty bool
}

// Fill inserts block with the given (valid) state, evicting the LRU way
// if the set is full. It returns the victim (ok=false if an invalid way
// was used). If the block is already resident its state is updated in
// place. A block that does not fit blockBits panics.
func (c *Cache) Fill(block uint64, s State) (v Victim, evicted bool) {
	pg, base, w := c.lookup(block)
	if w >= 0 {
		c.setWord(block, w, pg[base+w]&^stateMask|uint32(s))
		c.touch(block, w)
		return Victim{}, false
	}
	if block>>blockBits != 0 {
		// Fail loudly rather than mis-simulate: the word would drop the
		// block's high bits and the line would answer for another.
		panic(fmt.Sprintf("mem: Fill of block %#x, beyond the %d-bit block range of a line word", block, blockBits))
	}
	return c.insert(block, uint32(block)<<tagShift|uint32(s))
}

// insert puts block, which the cache does not hold, into its set as the
// most recently used line, with line word nw (block, dirty bit and
// state), evicting the LRU way if the set is full; Fill's absent-line
// path. On a full set the ranks are 1..assoc and the victim holds the
// last, so one pass over the rank bytes finds it and re-ranks the set as
// promote would: the victim takes 1 and every other way ages by one. A
// direct-mapped set's one way keeps rank 1, so its eviction writes no
// rank byte and copies no rank page.
func (c *Cache) insert(block uint64, nw uint32) (Victim, bool) {
	p, base := c.tagPl.locate(block&c.setMask, c.assoc)
	ways := c.tags[p][base : base+c.assoc]
	for w, word := range ways {
		if word == 0 {
			c.setWord(block, w, nw)
			c.promote(block, w)
			return Victim{}, false
		}
	}
	w := 0
	if c.assoc > 1 {
		rp, rbase := c.rankPl.locate(block&c.setMask, c.assoc)
		rpg := c.ranks[rp]
		if !c.isOwned(len(c.tags) + rp) {
			rpg = c.ownRanks(rp)
		}
		rs := rpg[rbase : rbase+c.assoc]
		lru := uint8(c.assoc)
		for i, r := range rs {
			if r == lru {
				w, r = i, 0
			}
			rs[i] = r + 1
		}
	}
	old := ways[w]
	c.Evictions++
	c.setWord(block, w, nw)
	return Victim{Block: uint64(old >> tagShift), State: State(old & stateMask), Dirty: old&dirtyBit != 0}, true
}

// Invalidate removes block and returns its prior state and dirtiness.
func (c *Cache) Invalidate(block uint64) (prior State, dirty bool) {
	pg, base, w := c.lookup(block)
	if w < 0 {
		return Invalid, false
	}
	prior, dirty = State(pg[base+w]&stateMask), pg[base+w]&dirtyBit != 0
	c.setWord(block, w, 0)
	// Close the gap the way leaves so the valid ways stay ranked 1..n.
	rp, rbase := c.rankPl.locate(block&c.setMask, c.assoc)
	rpg := c.ranks[rp]
	if !c.isOwned(len(c.tags) + rp) {
		rpg = c.ownRanks(rp)
	}
	rs := rpg[rbase : rbase+c.assoc]
	old := rs[w]
	for i, r := range rs {
		if r > old {
			rs[i] = r - 1
		}
	}
	rs[w] = 0
	return prior, dirty
}

// Clone returns a copy that shares every page with c copy-on-write:
// only the page tables are copied, and the clone owns nothing. Cloning
// freezes c if needed (a write); to snapshot one cache from several
// goroutines at once, Freeze it first — Clone on a frozen cache is
// read-only.
func (c *Cache) Clone() *Cache { return c.CloneOver(nil) }

// CloneOver is Clone built in the storage of spent, a cache nothing
// will use again (nil for none): the pages spent owns become the
// clone's spares and its page tables are overwritten with c's. spent
// may be a clone of any cache, c or not, of any geometry — nothing of
// it but capacity survives — and is the cache returned.
func (c *Cache) CloneOver(spent *Cache) *Cache {
	dst := spent
	if dst == nil {
		dst = new(Cache)
	}
	c.Freeze()
	// Harvest before the tables go: an owned page is dst's alone. Only
	// claim sets a bit, so every set bit names a page of one plane.
	nt := len(dst.tags)
	for i, word := range dst.owned {
		for ; word != 0; word &= word - 1 {
			if p := i<<6 + bits.TrailingZeros64(word); p < nt {
				dst.spareTags = append(dst.spareTags, dst.tags[p])
			} else {
				dst.spareRanks = append(dst.spareRanks, dst.ranks[p-nt])
			}
		}
	}
	// Everything is c's but the storage: tables re-copied from c, so what
	// dst was a clone of does not matter, and dst's own spare lists, never
	// c's — two caches popping one list would share a writable page.
	tags, ranks, owned := dst.tags[:0], dst.ranks[:0], dst.owned[:0]
	spareTags, spareRanks := dst.spareTags, dst.spareRanks
	*dst = *c
	dst.tags = append(tags, c.tags...)
	dst.ranks = append(ranks, c.ranks...)
	dst.owned = append(owned, c.owned...) // c is frozen: every bit clear
	dst.spareTags, dst.spareRanks = spareTags, spareRanks
	return dst
}

// Materialize forces ownership of every page of both planes, copying
// any still shared with another snapshot generation or still the zero
// page — turning a copy-on-write clone into a full deep copy, and
// making a new cache allocate its whole capacity. Used to price lazy
// against eager copying; the simulation itself never needs it.
func (c *Cache) Materialize() {
	for p := range c.tags {
		if !c.isOwned(p) {
			c.ownTags(p)
		}
	}
	for p := range c.ranks {
		if !c.isOwned(len(c.tags) + p) {
			c.ownRanks(p)
		}
	}
}

// wordAt and rankAt return the packed word and the recency rank of the
// line at set-major global index i (set*assoc + way). For tests.
func (c *Cache) wordAt(i int) uint64 {
	p, base := c.tagPl.locate(uint64(i/c.assoc), c.assoc)
	return uint64(c.tags[p][base+i%c.assoc])
}

func (c *Cache) rankAt(i int) uint8 {
	p, base := c.rankPl.locate(uint64(i/c.assoc), c.assoc)
	return c.ranks[p][base+i%c.assoc]
}
