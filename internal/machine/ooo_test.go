package machine

import (
	"testing"
	"testing/quick"

	"varsim/internal/config"
)

// TestAddInstrMatchesDivision holds addInstr's division-sparing cursor
// arithmetic to the plain formula it replaced — vt += (frac+n)/Width,
// frac = (frac+n)%Width — for every dispatch width 1…8, every
// reachable frac, and steps from one instruction to a million.
func TestAddInstrMatchesDivision(t *testing.T) {
	check := func(width uint8, frac uint8, vt uint32, idx uint32, steps []uint32) bool {
		w := int64(width%8) + 1
		c := &oooCore{cfg: config.OOOConfig{Width: int(w)}, vt: int64(vt), frac: int64(frac) % w, instrIdx: int64(idx)}
		wantVT, wantFrac, wantIdx := c.vt, c.frac, c.instrIdx
		for i, s := range steps {
			n := int64(s%1_000_000) + 1
			if i%2 == 0 {
				n = int64(s%16) + 1 // the common case: a handful of instructions
			}
			c.addInstr(n)
			wantIdx += n
			wantFrac += n
			wantVT += wantFrac / w
			wantFrac %= w
			if c.vt != wantVT || c.frac != wantFrac || c.instrIdx != wantIdx {
				t.Logf("width %d after +%d: (vt, frac, instrIdx) = (%d, %d, %d), want (%d, %d, %d)",
					w, n, c.vt, c.frac, c.instrIdx, wantVT, wantFrac, wantIdx)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPopRetiredInPlace checks that retiring from the window head keeps
// the survivors in order on the same backing array.
func TestPopRetiredInPlace(t *testing.T) {
	c := &oooCore{}
	for tok := int64(0); tok < 6; tok++ {
		c.misses = append(c.misses, oooMiss{token: tok, resolved: tok < 2 || tok == 4})
	}
	backing := &c.misses[0]
	c.popRetired()
	if len(c.misses) != 4 || &c.misses[0] != backing {
		t.Fatalf("popRetired left %d misses, moved=%v; want 4 on the same array", len(c.misses), &c.misses[0] != backing)
	}
	for i, want := range []int64{2, 3, 4, 5} {
		if c.misses[i].token != want {
			t.Fatalf("miss %d has token %d, want %d", i, c.misses[i].token, want)
		}
	}
	for i := range c.misses {
		c.misses[i].resolved = true
	}
	c.popRetired()
	if len(c.misses) != 0 || cap(c.misses) == 0 {
		t.Fatalf("fully retired window: len %d cap %d, want empty with its array kept", len(c.misses), cap(c.misses))
	}
}
