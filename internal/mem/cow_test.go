package mem

import (
	"testing"
	"testing/quick"

	"varsim/internal/config"
	"varsim/internal/rng"
)

// bigCache spans several COW pages of both planes (1024 sets x 4 ways =
// 4096 lines: 16 tag pages, 4 rank pages) so page-granular sharing is
// exercised.
func bigCache() *Cache {
	return NewCache(config.CacheConfig{SizeBytes: 256 << 10, Assoc: 4, BlockBits: 6})
}

// lineView is one line of both planes, unpacked.
type lineView struct {
	tag   uint64
	state State
	dirty bool
	rank  uint8
}

func viewAt(c *Cache, i int) lineView {
	w := c.wordAt(i)
	return lineView{tag: w >> tagShift, state: State(w & stateMask), dirty: w&dirtyBit != 0, rank: c.rankAt(i)}
}

// snapshotLines captures every line by global index for later
// comparison.
func snapshotLines(c *Cache) []lineView {
	out := make([]lineView, c.Sets()*c.Assoc())
	for i := range out {
		out[i] = viewAt(c, i)
	}
	return out
}

// contendedBlock draws from 8 tags over 16 sets that straddle every rank
// page and every tag page of bigCache, so short random sequences still
// evict. The tags span the whole range a line word holds — a truncated
// tag would alias two of them — the top one a tag short of its end,
// because a caller adds up to 63 to the block.
func contendedBlock(r *rng.Stream) uint64 {
	const topTag = 1<<blockBits/1024 - 2
	set := uint64(r.Intn(16)) * 67 % 1024
	return uint64(r.Intn(8))*topTag/7*1024 + set
}

// ownedPages counts the pages of each plane c may write in place.
func ownedPages(c *Cache) (tags, ranks int) {
	for p := range c.tags {
		if c.isOwned(p) {
			tags++
		}
	}
	for p := range c.ranks {
		if c.isOwned(len(c.tags) + p) {
			ranks++
		}
	}
	return tags, ranks
}

func linesEqual(a, b []lineView) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNewCacheOwnsNoPage: a new cache is born frozen, every page of
// both planes the shared zero page, owned by no one.
func TestNewCacheOwnsNoPage(t *testing.T) {
	c := bigCache()
	if tags, ranks := ownedPages(c); tags != 0 || ranks != 0 || !c.frozen {
		t.Fatalf("new cache owns %d tag and %d rank pages (frozen %v), want none (true)", tags, ranks, c.frozen)
	}
	for p := range c.tags {
		if c.tags[p] != &zeroTags {
			t.Fatalf("tag page %d is not the zero page", p)
		}
	}
	for p := range c.ranks {
		if c.ranks[p] != &zeroRanks {
			t.Fatalf("rank page %d is not the zero page", p)
		}
	}
}

// TestFillClaimsOnePageOfEach: a new cache's first fill copies exactly
// the tag page and the rank page it writes, and leaves the zero pages
// as they were.
func TestFillClaimsOnePageOfEach(t *testing.T) {
	c := bigCache()
	const block = 700 // set 700: tag page 10, rank page 2
	c.Fill(block, Modified)
	if tags, ranks := ownedPages(c); tags != 1 || ranks != 1 || !c.isOwned(10) || !c.isOwned(len(c.tags)+2) {
		t.Fatalf("one fill owns %d tag and %d rank pages, want tag page 10 and rank page 2", tags, ranks)
	}
	if c.frozen || c.GetState(block) != Modified {
		t.Fatal("the fill did not land")
	}
	if zeroTags != (tagPage{}) || zeroRanks != (rankPage{}) {
		t.Fatal("the fill wrote to a zero page")
	}
}

// TestCloneIsolation pins the COW contract from both sides and on both
// planes: writes to the parent after a clone — state changes (tag
// plane), LRU refreshes (rank plane), invalidations (both) — never show
// through the clone, and vice versa, while both keep sig == foldSig.
func TestCloneIsolation(t *testing.T) {
	c := bigCache()
	// Two ways in each of 400 sets, across 7 tag pages and 2 rank pages.
	for b := uint64(0); b < 400; b++ {
		c.Fill(b, Shared)
		c.Fill(b+1024, Shared)
	}
	cp := c.Clone()
	before := snapshotLines(cp)

	// Parent writes across many pages...
	for b := uint64(0); b < 400; b += 3 {
		c.SetState(b, Modified)
	}
	for b := uint64(1); b < 400; b += 3 {
		c.Probe(b) // the LRU way becomes MRU: a rank-plane write only
	}
	c.Invalidate(7)
	if !linesEqual(snapshotLines(cp), before) {
		t.Fatal("parent writes leaked into the clone")
	}
	// ...and clone writes never reach the parent.
	parentBefore := snapshotLines(c)
	for b := uint64(0); b < 400; b += 5 {
		cp.Invalidate(b)
	}
	for b := uint64(2); b < 400; b += 5 {
		cp.Probe(b)
	}
	if !linesEqual(snapshotLines(c), parentBefore) {
		t.Fatal("clone writes leaked into the parent")
	}
	if c.StateSig() != c.foldSig() {
		t.Fatal("parent sig drifted from foldSig")
	}
	if cp.StateSig() != cp.foldSig() {
		t.Fatal("clone sig drifted from foldSig")
	}
}

// ownedSet returns the pages of both planes c owns, as untyped pointers.
func ownedSet(c *Cache) map[any]bool {
	set := make(map[any]bool)
	for p, pg := range c.tags {
		if c.isOwned(p) {
			set[pg] = true
		}
	}
	for p, pg := range c.ranks {
		if c.isOwned(len(c.tags) + p) {
			set[pg] = true
		}
	}
	return set
}

// TestCloneNeverInheritsSpares: a cache holding spare pages hands none
// of them to its clones — neither a fresh clone nor one taken over a
// spent cache with spares of its own — so parent and clone, faulting the
// same pages, end up owning disjoint ones and see only their own writes.
func TestCloneNeverInheritsSpares(t *testing.T) {
	base := bigCache()
	for b := uint64(0); b < 2048; b++ {
		base.Fill(b, Shared)
	}
	spentClone := func() *Cache {
		c := base.Clone()
		c.Materialize()
		return c
	}
	parent := base.CloneOver(spentClone())
	if len(parent.spareTags) != len(base.tags) || len(parent.spareRanks) != len(base.ranks) {
		t.Fatalf("clone over a materialized clone holds %d+%d spares, want %d+%d",
			len(parent.spareTags), len(parent.spareRanks), len(base.tags), len(base.ranks))
	}
	fresh := parent.Clone()
	if len(fresh.spareTags) != 0 || len(fresh.spareRanks) != 0 {
		t.Fatalf("a fresh clone inherited %d+%d spares", len(fresh.spareTags), len(fresh.spareRanks))
	}
	over := parent.CloneOver(spentClone())

	// All three fault every page, each writing its own state.
	writers := []struct {
		c *Cache
		s State
	}{{parent, Modified}, {fresh, Owned}, {over, Exclusive}}
	for b := uint64(0); b < 2048; b++ {
		for _, w := range writers {
			w.c.SetState(b, w.s)
			w.c.Probe(b)
		}
	}
	sets := make([]map[any]bool, len(writers))
	for i, w := range writers {
		sets[i] = ownedSet(w.c)
		if len(sets[i]) != len(base.tags)+len(base.ranks) {
			t.Fatalf("writer %d owns %d pages, want all %d", i, len(sets[i]), len(base.tags)+len(base.ranks))
		}
		for b := uint64(0); b < 2048; b++ {
			if got := w.c.GetState(b); got != w.s {
				t.Fatalf("writer %d block %d = %v, want its own %v", i, b, got, w.s)
			}
		}
		if w.c.StateSig() != w.c.foldSig() {
			t.Fatalf("writer %d sig drifted from foldSig", i)
		}
		for j := 0; j < i; j++ {
			for pg := range sets[i] {
				if sets[j][pg] {
					t.Fatalf("writers %d and %d own one page", j, i)
				}
			}
		}
	}
	if base.GetState(0) != Shared {
		t.Fatal("clone writes reached the base")
	}
}

// TestSpareIsOverwrittenWhole: a clone taken over a spent cache whose
// every page was filled with 0xFF bytes is, after any writes, line for
// line the clone taken fresh — no word of a spare is read before the
// pop overwrites it.
func TestSpareIsOverwrittenWhole(t *testing.T) {
	base := bigCache()
	r := rng.New(0x5A)
	for i := 0; i < 3000; i++ {
		base.Fill(contendedBlock(&r)+uint64(r.Intn(64)), State(1+r.Intn(3)))
	}
	spent := base.Clone()
	spent.Materialize()
	for _, pg := range spent.tags {
		for i := range pg {
			pg[i] = ^uint32(0)
		}
	}
	for _, pg := range spent.ranks {
		for i := range pg {
			pg[i] = 0xFF
		}
	}
	over, fresh := base.CloneOver(spent), base.Clone()
	if !linesEqual(snapshotLines(over), snapshotLines(fresh)) || over.StateSig() != fresh.StateSig() {
		t.Fatal("clone over a poisoned cache differs from a fresh clone before any write")
	}
	for i := 0; i < 4000; i++ {
		b := contendedBlock(&r) + uint64(r.Intn(64))
		switch r.Intn(4) {
		case 0:
			if over.Probe(b) != fresh.Probe(b) {
				t.Fatalf("op %d: Probe(%d) differs", i, b)
			}
		case 1:
			gv, ge := over.Fill(b, Modified)
			wv, we := fresh.Fill(b, Modified)
			if gv != wv || ge != we {
				t.Fatalf("op %d: Fill(%d) = %+v %v, fresh %+v %v", i, b, gv, ge, wv, we)
			}
		case 2:
			over.Invalidate(b)
			fresh.Invalidate(b)
		default:
			over.SetDirty(b)
			fresh.SetDirty(b)
		}
	}
	check := func(when string) {
		t.Helper()
		if !linesEqual(snapshotLines(over), snapshotLines(fresh)) {
			t.Fatalf("%s: lines differ from the fresh clone's", when)
		}
		if over.StateSig() != over.foldSig() || over.StateSig() != fresh.StateSig() {
			t.Fatalf("%s: sig %x, fold %x, fresh %x", when, over.StateSig(), over.foldSig(), fresh.StateSig())
		}
		if over.Hits != fresh.Hits || over.Misses != fresh.Misses || over.Evictions != fresh.Evictions {
			t.Fatalf("%s: counters differ from the fresh clone's", when)
		}
	}
	check("after writes")
	// Every remaining page copied into a spare: still nothing of the poison.
	over.Materialize()
	fresh.Materialize()
	check("materialized")
	if n := len(over.spareTags) + len(over.spareRanks); n != 0 {
		t.Fatalf("%d spares left after materializing every page", n)
	}
}

// TestReadHitsLeaveTagPagesShared pins what the split planes buy: read
// hits on a clone of a frozen cache copy rank pages at most, never a tag
// page, and a re-hit on the MRU way copies nothing at all.
func TestReadHitsLeaveTagPagesShared(t *testing.T) {
	c := bigCache()
	for b := uint64(0); b < 2048; b++ {
		c.Fill(b, Shared) // two ways of every set; way 1 ends MRU
	}
	c.Freeze()

	cp := c.Clone()
	for b := uint64(1024); b < 2048; b++ {
		if cp.Probe(b) != Shared {
			t.Fatalf("block %d missed", b)
		}
		cp.GetState(b)
	}
	if tags, ranks := ownedPages(cp); tags != 0 || ranks != 0 {
		t.Fatalf("1024 MRU re-hits own %d tag and %d rank pages, want none", tags, ranks)
	}

	for n := 0; n < 3; n++ {
		for b := uint64(0); b < 2048; b++ {
			cp.Probe(b)
		}
	}
	tags, ranks := ownedPages(cp)
	if tags != 0 {
		t.Fatalf("read hits own %d tag pages, want none", tags)
	}
	if ranks != len(cp.ranks) {
		t.Fatalf("LRU churn in every set owns %d of %d rank pages", ranks, len(cp.ranks))
	}
	if cp.Hits != c.Hits+1024+3*2048 || cp.Misses != c.Misses {
		t.Fatalf("hits %d misses %d after read-only probing", cp.Hits-c.Hits, cp.Misses-c.Misses)
	}
	if tags, ranks := ownedPages(c); tags != 0 || ranks != 0 {
		t.Fatal("clone reads made the frozen parent own pages")
	}

	// A fill owns exactly the one tag page it writes.
	cp.Fill(4096, Modified)
	if tags, _ := ownedPages(cp); tags != 1 {
		t.Fatalf("one fill owns %d tag pages, want 1", tags)
	}
}

// TestCloneChain exercises clone-of-clone: a grandchild branched from a
// mutated child must see the child's state, not the grandparent's, and
// stay isolated from further child writes.
func TestCloneChain(t *testing.T) {
	c := bigCache()
	for b := uint64(0); b < 100; b++ {
		c.Fill(b, Shared)
	}
	child := c.Clone()
	child.SetState(10, Modified)
	grand := child.Clone()
	if grand.GetState(10) != Modified {
		t.Fatal("grandchild missing child's pre-branch write")
	}
	child.SetState(10, Owned)
	if grand.GetState(10) != Modified {
		t.Fatal("child's post-branch write leaked into grandchild")
	}
	if c.GetState(10) != Shared {
		t.Fatal("descendant writes leaked into the root")
	}
	for _, cc := range []*Cache{c, child, grand} {
		if cc.StateSig() != cc.foldSig() {
			t.Fatal("sig drifted from foldSig in clone chain")
		}
	}
}

// TestMaterializeEquivalence: materializing a clone changes no
// observable state — it only forces page ownership.
func TestMaterializeEquivalence(t *testing.T) {
	c := bigCache()
	for b := uint64(0); b < 150; b++ {
		c.Fill(b, Shared)
	}
	lazy := c.Clone()
	eager := c.Clone()
	eager.Materialize()
	if !linesEqual(snapshotLines(lazy), snapshotLines(eager)) {
		t.Fatal("Materialize changed line state")
	}
	if lazy.StateSig() != eager.StateSig() {
		t.Fatal("Materialize changed the state signature")
	}
	// After materializing, parent writes must not reach the eager copy
	// (it owns everything) — same guarantee as the lazy one.
	c.Invalidate(3)
	if eager.GetState(3) == Invalid || lazy.GetState(3) == Invalid {
		t.Fatal("parent write visible through a clone")
	}
}

// TestProbeHitMaterializes: the LRU refresh on a probe hit is a write
// and must not touch the shared rank page the sibling still reads.
func TestProbeHitMaterializes(t *testing.T) {
	c := bigCache()
	c.Fill(1, Shared)
	c.Fill(1+1024, Shared) // same set, second way (1024 sets)
	cp := c.Clone()
	before := snapshotLines(cp)
	for i := 0; i < 5; i++ {
		c.Probe(1) // parent LRU churn
	}
	if !linesEqual(snapshotLines(cp), before) {
		t.Fatal("parent Probe LRU write leaked into the clone")
	}
}

// Property: an arbitrary operation sequence applied identically to a
// COW clone and to a materialized deep copy leaves them line-for-line
// identical with matching signatures — lazy materialization is
// observationally equivalent to eager copying.
func TestCOWMatchesDeepProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, nOps uint16) bool {
		base := bigCache()
		r := rng.New(seed)
		for i := 0; i < 100; i++ {
			base.Fill(contendedBlock(&r), State(1+r.Intn(3)))
		}
		cow := base.Clone()
		deep := base.Clone()
		deep.Materialize()
		for i := 0; i < int(nOps%400); i++ {
			b := contendedBlock(&r)
			switch r.Intn(5) {
			case 0:
				if cow.Probe(b) != deep.Probe(b) {
					return false
				}
			case 1:
				cow.Fill(b, Modified)
				deep.Fill(b, Modified)
			case 2:
				s := State(1 + r.Intn(3))
				cow.SetState(b, s)
				deep.SetState(b, s)
			case 3:
				cow.Invalidate(b)
				deep.Invalidate(b)
			case 4:
				cow.SetDirty(b)
				deep.SetDirty(b)
			}
		}
		return linesEqual(snapshotLines(cow), snapshotLines(deep)) &&
			cow.StateSig() == deep.StateSig() &&
			cow.StateSig() == cow.foldSig() && deep.StateSig() == deep.foldSig()
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenCloneIsReadOnly: cloning a frozen cache concurrently is
// safe — pinned here sequentially by checking Freeze leaves no page of
// either plane owned, and neither Clone nor the clone's first StateSig,
// which folds the signature the never-read base never had, writes to
// the parent.
func TestFrozenCloneIsReadOnly(t *testing.T) {
	c := bigCache()
	for b := uint64(0); b < 64; b++ {
		c.Fill(b, Shared)
	}
	// Sets 0-63 are all of tag page 0 and a quarter of rank page 0.
	if tags, ranks := ownedPages(c); tags != 1 || ranks != 1 || !c.isOwned(0) || !c.isOwned(len(c.tags)) {
		t.Fatalf("64 fills own %d/%d tag and %d/%d rank pages, want tag and rank page 0 alone", tags, len(c.tags), ranks, len(c.ranks))
	}
	c.Freeze()
	if !c.frozen {
		t.Fatal("Freeze did not latch")
	}
	if tags, ranks := ownedPages(c); tags != 0 || ranks != 0 {
		t.Fatalf("%d tag and %d rank pages still owned after Freeze", tags, ranks)
	}
	tagTable, rankTable := append([]*tagPage(nil), c.tags...), append([]*rankPage(nil), c.ranks...)
	lines := snapshotLines(c)
	_ = c.Clone()
	cp := c.Clone()
	if got, want := cp.StateSig(), cp.foldSig(); got != want || got == 0 {
		t.Fatalf("clone's first StateSig %x, fold %x", got, want)
	}
	if tags, ranks := ownedPages(c); tags != 0 || ranks != 0 || !c.frozen {
		t.Fatal("Clone of a frozen cache wrote to the parent")
	}
	if c.sigLive || c.sig != 0 || !linesEqual(snapshotLines(c), lines) {
		t.Fatal("the clone's first StateSig wrote to its frozen base")
	}
	for p := range c.tags {
		if c.tags[p] != tagTable[p] || cp.tags[p] != tagTable[p] {
			t.Fatalf("tag page %d not shared after Clone of a frozen cache", p)
		}
	}
	for p := range c.ranks {
		if c.ranks[p] != rankTable[p] || cp.ranks[p] != rankTable[p] {
			t.Fatalf("rank page %d not shared after Clone of a frozen cache", p)
		}
	}
}

// TestEvictionOnFrozenCloneCopies pins what an evicting fill on a
// frozen clone copies: its tag page always, and the rank page only when
// the set has more than one way to re-rank — a direct-mapped set's one
// way keeps rank 1, so its eviction writes no rank byte.
func TestEvictionOnFrozenCloneCopies(t *testing.T) {
	for _, tc := range []struct{ assoc, rankPages int }{{1, 0}, {4, 1}} {
		const sets = 1024
		c := NewCache(config.CacheConfig{SizeBytes: sets * tc.assoc * 64, Assoc: tc.assoc, BlockBits: 6})
		for w := range tc.assoc {
			c.Fill(uint64(w)*sets+5, Shared) // fill set 5
		}
		c.Freeze()
		cp := c.Clone()
		v, evicted := cp.Fill(uint64(tc.assoc)*sets+5, Modified)
		if !evicted || v.Block != 5 {
			t.Fatalf("assoc %d: Fill evicted %+v (%v), want block 5", tc.assoc, v, evicted)
		}
		if tags, ranks := ownedPages(cp); tags != 1 || ranks != tc.rankPages {
			t.Fatalf("assoc %d: eviction copied %d tag and %d rank pages, want 1 and %d", tc.assoc, tags, ranks, tc.rankPages)
		}
		if tags, ranks := ownedPages(c); tags != 0 || ranks != 0 || c.GetState(5) != Shared {
			t.Fatalf("assoc %d: eviction on the clone wrote to its frozen base", tc.assoc)
		}
	}
}
