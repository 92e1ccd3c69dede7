// Package bpred implements the branch predictors of the TFsim-like
// detailed processor model (§3.2.4 of the paper): a YAGS conditional
// predictor, a 64-entry cascaded indirect branch predictor, and a
// 64-entry return address stack.
package bpred

import "varsim/internal/config"

// entry is a tagged 2-bit-counter entry of a YAGS exception cache.
type entry struct {
	tag   uint16
	ctr   uint8 // 0..3 saturating; >=2 means taken
	valid bool
}

// indEntry is one cascaded-indirect-predictor entry: a hysteresis
// counter keeps the dominant target resident against occasional
// alternates.
type indEntry struct {
	site   uint32
	target uint64
	ctr    uint8
	valid  bool
}

// Unit is the full branch prediction unit of one core.
type Unit struct {
	// YAGS: choice PHT plus taken/not-taken exception caches.
	choice    []uint8
	excT      []entry // exceptions to "not taken"
	excNT     []entry // exceptions to "taken"
	ghr       uint64
	choiceMsk uint32
	excMsk    uint32

	// Cascaded indirect predictor: first stage indexed by site, second
	// stage indexed by site^history.
	ind1 []indEntry
	ind2 []indEntry

	// Return address stack.
	ras    []uint64
	rasTop int

	// shared marks the tables (all six slices) as aliased with another
	// Unit after a copy-on-write Clone; the first table write copies
	// them (see ensureOwned). Scalar state — ghr, rasTop, counters — is
	// copied by value at Clone time and never shared.
	shared bool

	CondSeen  uint64
	CondMiss  uint64
	IndSeen   uint64
	IndMiss   uint64
	RetSeen   uint64
	RetMiss   uint64
	Overflows uint64
}

// New builds a unit from the OOO configuration.
func New(cfg config.OOOConfig) *Unit {
	cBits, eBits := cfg.YAGSChoiceBits, cfg.YAGSExcBits
	if cBits == 0 {
		cBits = 12
	}
	if eBits == 0 {
		eBits = 10
	}
	n := cfg.IndirectEntries
	if n <= 0 {
		n = 64
	}
	r := cfg.RASEntries
	if r <= 0 {
		r = 64
	}
	u := &Unit{
		choice:    make([]uint8, 1<<cBits),
		excT:      make([]entry, 1<<eBits),
		excNT:     make([]entry, 1<<eBits),
		choiceMsk: uint32(1<<cBits - 1),
		excMsk:    uint32(1<<eBits - 1),
		ind1:      make([]indEntry, n),
		ind2:      make([]indEntry, n),
		ras:       make([]uint64, r),
	}
	// Weakly taken default.
	for i := range u.choice {
		u.choice[i] = 2
	}
	return u
}

func ctrTaken(c uint8) bool { return c >= 2 }

func inc(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return c
}

func dec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}

// PredictCond predicts the conditional branch at site, then updates the
// predictor with the actual outcome. It returns whether the prediction
// was correct.
func (u *Unit) PredictCond(site uint32, taken bool) bool {
	u.ensureOwned()
	u.CondSeen++
	ci := site & u.choiceMsk
	ei := (site ^ uint32(u.ghr)) & u.excMsk
	tag := uint16(site>>4) | 1

	choiceTaken := ctrTaken(u.choice[ci])
	var pred bool
	var exc *entry
	if choiceTaken {
		// Consult the "not taken" exception cache.
		e := &u.excNT[ei]
		if e.valid && e.tag == tag {
			pred = ctrTaken(e.ctr)
			exc = e
		} else {
			pred = true
		}
	} else {
		e := &u.excT[ei]
		if e.valid && e.tag == tag {
			pred = ctrTaken(e.ctr)
			exc = e
		} else {
			pred = false
		}
	}

	// Update (YAGS rules).
	if exc != nil {
		if taken {
			exc.ctr = inc(exc.ctr)
		} else {
			exc.ctr = dec(exc.ctr)
		}
		// The choice PHT updates unless the exception was correct while
		// the choice was wrong.
		if !(ctrTaken(exc.ctr) == taken && choiceTaken != taken) {
			u.updateChoice(ci, taken)
		}
	} else {
		if choiceTaken != taken {
			// Allocate an exception entry.
			var cache []entry
			if choiceTaken {
				cache = u.excNT
			} else {
				cache = u.excT
			}
			c := uint8(1)
			if taken {
				c = 2
			}
			cache[ei] = entry{tag: tag, ctr: c, valid: true}
		}
		u.updateChoice(ci, taken)
	}
	u.ghr = u.ghr<<1 | b2u(taken)
	if pred != taken {
		u.CondMiss++
		return false
	}
	return true
}

func (u *Unit) updateChoice(ci uint32, taken bool) {
	if taken {
		u.choice[ci] = inc(u.choice[ci])
	} else {
		u.choice[ci] = dec(u.choice[ci])
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// updateInd applies the hysteresis update: a resident target survives
// one disagreement before being replaced.
func updateInd(e *indEntry, site uint32, target uint64) {
	switch {
	case !e.valid || e.site != site:
		*e = indEntry{site: site, target: target, ctr: 1, valid: true}
	case e.target == target:
		e.ctr = inc(e.ctr)
	case e.ctr > 0:
		e.ctr--
	default:
		e.target = target
		e.ctr = 1
	}
}

// PredictIndirect predicts the target of the indirect branch at site,
// updates both stages, and reports whether the prediction was correct.
// The cascade prefers the history-indexed second stage on a tag match;
// second-stage entries are allocated only when the first stage
// mispredicts (cascaded filtering), and both stages use hysteresis so
// the dominant target survives occasional alternates.
func (u *Unit) PredictIndirect(site uint32, target uint64) bool {
	u.ensureOwned()
	u.IndSeen++
	e1 := &u.ind1[int(site)%len(u.ind1)]
	e2 := &u.ind2[int(site^uint32(u.ghr&0xff))%len(u.ind2)]

	var pred uint64
	havePred, usedStage2 := false, false
	if e2.valid && e2.site == site {
		pred, havePred, usedStage2 = e2.target, true, true
	} else if e1.valid && e1.site == site {
		pred, havePred = e1.target, true
	}
	correct := havePred && pred == target

	stage1Wrong := !e1.valid || e1.site != site || e1.target != target
	updateInd(e1, site, target)
	if usedStage2 || stage1Wrong {
		updateInd(e2, site, target)
	}
	if !correct {
		u.IndMiss++
	}
	return correct
}

// Call pushes a return address on the RAS.
func (u *Unit) Call(retAddr uint64) {
	u.ensureOwned()
	if u.rasTop == len(u.ras) {
		// Overflow: discard the oldest entry.
		copy(u.ras, u.ras[1:])
		u.rasTop--
		u.Overflows++
	}
	u.ras[u.rasTop] = retAddr
	u.rasTop++
}

// Ret pops the RAS and reports whether it predicted retAddr correctly.
func (u *Unit) Ret(retAddr uint64) bool {
	u.RetSeen++
	if u.rasTop == 0 {
		u.RetMiss++
		return false
	}
	u.rasTop--
	if u.ras[u.rasTop] != retAddr {
		u.RetMiss++
		return false
	}
	return true
}

// Freeze relinquishes table ownership so the unit can be cloned
// cheaply: both the unit and its future clones copy the tables on
// their next table write. Ret only moves the stack pointer, so it
// stays copy-free. Freeze on an already-frozen unit performs no write,
// so concurrent Clones of a frozen unit are safe.
func (u *Unit) Freeze() {
	if !u.shared {
		u.shared = true
	}
}

// ensureOwned copies the shared tables before the first write after a
// copy-on-write Clone. The whole unit materializes at once (~13 KiB at
// the default geometry): predictor updates ride every conditional
// branch, so per-table laziness would buy a few kilobytes at the cost
// of a flag check per table access.
func (u *Unit) ensureOwned() {
	if !u.shared {
		return
	}
	u.shared = false
	u.choice = append([]uint8(nil), u.choice...)
	u.excT = append([]entry(nil), u.excT...)
	u.excNT = append([]entry(nil), u.excNT...)
	u.ind1 = append([]indEntry(nil), u.ind1...)
	u.ind2 = append([]indEntry(nil), u.ind2...)
	u.ras = append([]uint64(nil), u.ras...)
}

// Materialize forces table ownership, making the unit a full deep
// copy (the eager endpoint of the copy-on-write pair).
func (u *Unit) Materialize() { u.ensureOwned() }

// Clone returns a copy sharing the tables copy-on-write. Cloning
// freezes u if needed (a write); to clone one unit from several
// goroutines at once, Freeze it first — Clone on a frozen unit is
// read-only.
func (u *Unit) Clone() *Unit { return u.CloneOver(nil) }

// CloneOver is Clone built in the struct of spent, a unit nothing will
// use again (nil for none), which is the unit returned. The clone shares
// u's tables as Clone's does; the ones spent owned are dropped.
func (u *Unit) CloneOver(spent *Unit) *Unit {
	u.Freeze()
	if spent == nil {
		spent = new(Unit)
	}
	*spent = *u
	return spent
}
