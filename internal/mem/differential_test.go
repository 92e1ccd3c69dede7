package mem

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"varsim/internal/config"
	"varsim/internal/rng"
)

// agree reports how the packed cache and the reference model differ in
// anything observable: counters, both signatures (each against its own
// from-scratch fold, and against each other), every line's (tag, state,
// dirty), and every set's recency order.
func agree(c *Cache, ref *refCache) error {
	if c.Hits != ref.Hits || c.Misses != ref.Misses || c.Evictions != ref.Evicted {
		return fmt.Errorf("counters %d/%d/%d, reference %d/%d/%d",
			c.Hits, c.Misses, c.Evictions, ref.Hits, ref.Misses, ref.Evicted)
	}
	if c.StateSig() != c.foldSig() || ref.sig != ref.foldSig() || c.StateSig() != ref.sig {
		return fmt.Errorf("sig %x fold %x, reference sig %x fold %x", c.StateSig(), c.foldSig(), ref.sig, ref.foldSig())
	}
	for i, want := range ref.lines {
		got := viewAt(c, i)
		if got.state != want.state || got.tag != want.tag || got.dirty != want.dirty {
			return fmt.Errorf("line %d = %+v, reference %+v", i, got, want)
		}
	}
	for set := 0; set < c.Sets(); set++ {
		if got, want := c.recency(set), ref.recency(set); got == nil || !slices.Equal(got, want) {
			return fmt.Errorf("set %d recency %v, reference %v", set, got, want)
		}
	}
	return nil
}

// TestPackedMatchesReference drives the packed two-plane cache and the
// array-of-structs reference through the same random operation
// sequences — including Freeze, Materialize and Clone, after which
// either the clone or the parent carries on — and demands equal return
// values and victims at every step and full agreement at the end, on
// the live pair and on every generation left behind. Three clones in
// four are taken over a spent cache whose pages hold other lines — a
// scribbled-on clone of the same cache, one of an earlier generation of
// it, a cache of another geometry — which must change nothing: the
// reference deep-copies every time.
//
// The signature is first read at a random step, and then now and then,
// each read held to foldSig and to the reference's: so it is first
// read on a cache never read before, on a clone of a never-read base,
// and incrementally on clones of a live base and on clones built over
// a spent cache that was live — each case met in every geometry.
func TestPackedMatchesReference(t *testing.T) {
	geometries := []config.CacheConfig{
		{SizeBytes: 4 * 64, Assoc: 1, BlockBits: 6},                                  // direct-mapped, 4 sets
		{SizeBytes: 512 * 64, Assoc: 2, BlockBits: 6},                                // 2 tag pages
		{SizeBytes: 2 * 3 * 64, Assoc: 3, BlockBits: 6},                              // ways do not fill the page
		{SizeBytes: 4096 * 64, Assoc: 4, BlockBits: 6},                               // 16 tag pages, 4 rank pages
		{SizeBytes: 64 * 64, Assoc: 8, BlockBits: 6},                                 //
		{SizeBytes: 256 * 64, Assoc: 16, BlockBits: 6},                               //
		{SizeBytes: 16 * config.MaxAssoc * 64, Assoc: config.MaxAssoc, BlockBits: 6}, // two sets per tag page
	}
	states := []State{Shared, Owned, Modified, Exclusive}
	cases := []string{"never-read cache", "clone of a never-read base", "clone of a live base", "CloneOver of a spent live cache"}
	for gi, cfg := range geometries {
		t.Run(fmt.Sprintf("assoc%d", cfg.Assoc), func(t *testing.T) {
			var failure error
			met := make([]int, len(cases))
			if err := quick.Check(func(seed uint64, nOps uint16) bool {
				c, ref := NewCache(cfg), newRefCache(cfg)
				var older *Cache // a spent clone of an earlier generation of c
				type generation struct {
					c   *Cache
					ref *refCache
				}
				var left []generation
				r := rng.New(seed)
				steps := int(nOps) % 1500
				// Early as often as late: a cache is cloned about every
				// sixteenth step.
				firstRead := r.Intn(steps+1) >> r.Intn(6)
				cloned := false // c was cloned, or is a clone, before its first read
				readSig := func(i int) error {
					if got, fold := c.StateSig(), c.foldSig(); got != fold || got != ref.sig {
						return fmt.Errorf("op %d: StateSig %x, fold %x, reference %x", i, got, fold, ref.sig)
					}
					return nil
				}
				// Twice as many tags as ways over a handful of sets spread
				// across the whole index range: sets fill and evict fast.
				// The tags run evenly from 0 to the last one a line word
				// holds, so a word that dropped a tag bit would alias two.
				hot := min(cfg.Sets(), 6)
				topTag := uint64(1<<blockBits/cfg.Sets() - 1)
				block := func() uint64 {
					set := uint64(r.Intn(hot)) * uint64(cfg.Sets()/hot)
					tag := uint64(r.Intn(2*cfg.Assoc)) * topTag / uint64(2*cfg.Assoc-1)
					return tag*uint64(cfg.Sets()) + set
				}
				// scribble makes x own pages whose lines are not c's, and
				// returns it: a finished branch, ready to be cloned over.
				scribble := func(x *Cache) *Cache {
					if r.Bool(0.5) {
						x.StateSig()
					}
					for n := 1 + r.Intn(40); n > 0; n-- {
						switch b := block(); r.Intn(3) {
						case 0:
							x.Fill(b, Modified)
						case 1:
							x.Probe(b)
						default:
							x.Invalidate(b)
						}
					}
					return x
				}
				for i := 0; i < steps; i++ {
					if i == firstRead {
						if cloned {
							met[1]++
						} else {
							met[0]++
						}
						if failure = readSig(i); failure != nil {
							return false
						}
					} else if i > firstRead && r.Intn(8) == 0 {
						if failure = readSig(i); failure != nil {
							return false
						}
					}
					b := block()
					switch op := r.Intn(16); {
					case op < 5:
						if got, want := c.Probe(b), ref.Probe(b); got != want {
							failure = fmt.Errorf("op %d Probe(%d) = %v, reference %v", i, b, got, want)
							return false
						}
					case op < 9:
						s := states[r.Intn(len(states))]
						gv, ge := c.Fill(b, s)
						wv, we := ref.Fill(b, s)
						if gv != wv || ge != we {
							failure = fmt.Errorf("op %d Fill(%d) = %+v %v, reference %+v %v", i, b, gv, ge, wv, we)
							return false
						}
					case op < 10:
						if got, want := c.GetState(b), ref.GetState(b); got != want {
							failure = fmt.Errorf("op %d GetState(%d) = %v, reference %v", i, b, got, want)
							return false
						}
					case op < 11:
						s := State(r.Intn(5)) // Invalid included
						c.SetState(b, s)
						ref.SetState(b, s)
					case op < 12:
						c.SetDirty(b)
						ref.SetDirty(b)
					case op < 13:
						gs, gd := c.Invalidate(b)
						ws, wd := ref.Invalidate(b)
						if gs != ws || gd != wd {
							failure = fmt.Errorf("op %d Invalidate(%d) = %v %v, reference %v %v", i, b, gs, gd, ws, wd)
							return false
						}
					case op < 14:
						c.Freeze()
					case op < 15:
						c.Materialize()
					default:
						// Branch, and carry on with the clone or the parent;
						// the other side must still match its (deep-copied)
						// reference when everything is over.
						var spent *Cache
						switch r.Intn(4) {
						case 0:
							spent = scribble(c.Clone())
						case 1:
							spent = older
						case 2:
							// A new cache, materialized: owns every page.
							spent = NewCache(geometries[(gi+1)%len(geometries)])
							spent.Materialize()
							spent = scribble(spent)
						}
						if i > firstRead {
							met[2]++
						}
						if spent != nil && spent.sigLive {
							met[3]++
						}
						older = scribble(c.Clone())
						cc, rc := c.CloneOver(spent), ref.Clone()
						if spent != nil && cc != spent {
							failure = fmt.Errorf("op %d CloneOver did not build in the spent cache", i)
							return false
						}
						cloned = cloned || i < firstRead
						if r.Bool(0.5) {
							c, cc = cc, c
							ref, rc = rc, ref
						}
						left = append(left, generation{cc, rc})
					}
				}
				if failure = agree(c, ref); failure != nil {
					return false
				}
				for g, gen := range left {
					if err := agree(gen.c, gen.ref); err != nil {
						failure = fmt.Errorf("generation %d of %d left behind: %w", g, len(left), err)
						return false
					}
				}
				return true
			}, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatalf("%v\n%v", err, failure)
			}
			for k, n := range met {
				if n == 0 {
					t.Errorf("no signature read covered the case %q", cases[k])
				}
			}
			t.Logf("signature cases met: %v", met)
		})
	}
}
