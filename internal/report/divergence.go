package report

import (
	"fmt"
	"io"
	"strings"

	"varsim/internal/digest"
	"varsim/internal/machine"
)

// WriteDivergence renders a two-run digest diff: the digest interval
// within which the runs first forked, and every component whose state
// had forked by that interval's closing tick. a and b name the runs
// ("run 0", "A/run 3", ...); intervalNS is the streams' digest cadence.
func WriteDivergence(w io.Writer, a, b string, d digest.Divergence, intervalNS int64) {
	if !d.Diverged && d.Compared == 0 {
		fmt.Fprintf(w, "%s and %s: neither run closed a %d ns digest interval\n", a, b, intervalNS)
		return
	}
	if !d.Diverged {
		fmt.Fprintf(w, "%s and %s: identical across all %d digest intervals\n", a, b, d.Compared)
		return
	}
	if len(d.Components) == 0 {
		// Length-only fork: the common prefix matches but one run kept
		// ticking — the drain schedules themselves diverged.
		fmt.Fprintf(w, "%s and %s: identical over the common %d intervals, then one stream ends (t=%d ns)\n",
			a, b, d.Compared, d.TimeNS)
		return
	}
	fmt.Fprintf(w, "%s and %s: forked within digest interval %d, the %d ns ending at t=%d ns\n",
		a, b, d.Interval, intervalNS, d.TimeNS)
	names := make([]string, len(d.Components))
	for i, c := range d.Components {
		names[i] = c.String()
	}
	fmt.Fprintf(w, "forked components: %s\n", strings.Join(names, ", "))
}

// WriteResultDelta renders the final-metric deltas that follow a
// divergence: how far apart the two runs ended up.
func WriteResultDelta(w io.Writer, a, b machine.Result) {
	fmt.Fprintf(w, "metric deltas (B - A):\n")
	fmt.Fprintf(w, "  cycles/txn  %+.1f  (%.1f vs %.1f, %+.2f%%)\n",
		b.CPT-a.CPT, a.CPT, b.CPT, pctDelta(a.CPT, b.CPT))
	// The counter fields are uint64; subtract as int64 so a B behind A
	// prints a negative delta instead of wrapping.
	fmt.Fprintf(w, "  instrs      %+d\n", b.Instrs-a.Instrs)
	fmt.Fprintf(w, "  L2 misses   %+d\n", int64(b.L2Misses)-int64(a.L2Misses))
	fmt.Fprintf(w, "  c2c xfers   %+d\n", int64(b.CacheToCache)-int64(a.CacheToCache))
	fmt.Fprintf(w, "  ctx switch  %+d\n", int64(b.CtxSwitches)-int64(a.CtxSwitches))
	fmt.Fprintf(w, "  lock waits  %+d\n", int64(b.LockContentions)-int64(a.LockContentions))
}

func pctDelta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}
