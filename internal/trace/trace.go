// Package trace provides structured execution tracing and the analyses
// built on it: per-lock contention reports, per-thread timelines, CPU
// utilization, and run-divergence measurement (the machinery behind
// Figure 1 of the paper, generalized).
//
// Tracing is optional and off by default; when enabled, the machine
// appends plain-data events, so traces are cheap to record and trivially
// cloneable with machine snapshots.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// sortedKeys returns m's keys in ascending order. It is this package's
// audited sorted-key helper: report builders iterate maps through it so
// output order never depends on Go's randomized map iteration.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	//varsim:allow maporder key collection only; sorted before return
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// Kind classifies a trace event.
type Kind uint8

const (
	// Dispatch: Thread starts running on CPU.
	Dispatch Kind = iota
	// Block: Thread leaves CPU (Arg encodes the reason as blockReason).
	Block
	// Wake: Thread became runnable.
	Wake
	// LockAcquire: Thread acquired lock Arg.
	LockAcquire
	// LockContended: Thread failed to acquire lock Arg (spin or wait).
	LockContended
	// LockRelease: Thread released lock Arg.
	LockRelease
	// TxnEnd: Thread completed a transaction of class Arg.
	TxnEnd
	numKinds
)

// kindNames names every trace-event kind, keyed by constant so the
// table can't silently drift out of order; the test suite asserts it
// stays complete as kinds are added.
var kindNames = [numKinds]string{
	Dispatch:      "dispatch",
	Block:         "block",
	Wake:          "wake",
	LockAcquire:   "lock-acquire",
	LockContended: "lock-contended",
	LockRelease:   "lock-release",
	TxnEnd:        "txn-end",
}

func (k Kind) String() string {
	if k >= numKinds || kindNames[k] == "" {
		return "invalid"
	}
	return kindNames[k]
}

// BlockReason is carried in Event.Arg for Block events.
type BlockReason int64

// Reasons a thread leaves its processor.
const (
	ReasonLock BlockReason = iota
	ReasonIO
	ReasonBarrier
	ReasonPreempt
	ReasonDone
)

func (r BlockReason) String() string {
	names := [...]string{"lock", "io", "barrier", "preempt", "done"}
	if int(r) < len(names) {
		return names[r]
	}
	return "invalid"
}

// Event is one trace record.
type Event struct {
	TimeNS int64
	Kind   Kind
	CPU    int32
	Thread int32
	Arg    int64
}

// Buffer accumulates events up to a cap (0 = unbounded). Overflow drops
// the newest events and counts them.
type Buffer struct {
	events  []Event
	cap     int
	Dropped uint64
}

// NewBuffer creates a buffer retaining at most capEvents events
// (0 = unbounded).
func NewBuffer(capEvents int) *Buffer {
	return &Buffer{cap: capEvents}
}

// Append records an event.
func (b *Buffer) Append(ev Event) {
	if b.cap > 0 && len(b.events) >= b.cap {
		b.Dropped++
		return
	}
	b.events = append(b.events, ev)
}

// Events returns the recorded events (not a copy).
func (b *Buffer) Events() []Event { return b.events }

// Len returns the number of retained events.
func (b *Buffer) Len() int { return len(b.events) }

// Clone deep-copies the buffer (for machine snapshots).
func (b *Buffer) Clone() *Buffer {
	cp := *b
	cp.events = append([]Event(nil), b.events...)
	return &cp
}

// LockStats summarizes one lock's behaviour over a trace.
type LockStats struct {
	Lock         int64
	Acquisitions uint64
	Contentions  uint64
	HoldNS       int64 // total time held (acquire -> release)
	MaxHoldNS    int64
}

// ContentionRate is contended attempts per acquisition.
func (s LockStats) ContentionRate() float64 {
	if s.Acquisitions == 0 {
		return 0
	}
	return float64(s.Contentions) / float64(s.Acquisitions)
}

// LockReport computes per-lock statistics from a trace, most-contended
// first.
func LockReport(events []Event) []LockStats {
	byLock := map[int64]*LockStats{}
	heldSince := map[[2]int64]int64{} // (lock, thread) -> acquire time
	get := func(l int64) *LockStats {
		s := byLock[l]
		if s == nil {
			s = &LockStats{Lock: l}
			byLock[l] = s
		}
		return s
	}
	for _, ev := range events {
		//varsim:allow kindexhaust lock report only inspects lock events; the rest are deliberately skipped
		switch ev.Kind {
		case LockAcquire:
			get(ev.Arg).Acquisitions++
			heldSince[[2]int64{ev.Arg, int64(ev.Thread)}] = ev.TimeNS
		case LockContended:
			get(ev.Arg).Contentions++
		case LockRelease:
			key := [2]int64{ev.Arg, int64(ev.Thread)}
			if t0, ok := heldSince[key]; ok {
				hold := ev.TimeNS - t0
				s := get(ev.Arg)
				s.HoldNS += hold
				if hold > s.MaxHoldNS {
					s.MaxHoldNS = hold
				}
				delete(heldSince, key)
			}
		}
	}
	out := make([]LockStats, 0, len(byLock))
	for _, l := range sortedKeys(byLock) {
		out = append(out, *byLock[l])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Contentions != out[j].Contentions {
			return out[i].Contentions > out[j].Contentions
		}
		return out[i].Lock < out[j].Lock
	})
	return out
}

// ThreadStats summarizes one thread's schedule over a trace.
type ThreadStats struct {
	Thread     int32
	RunNS      int64
	Dispatches uint64
	Txns       uint64
	Blocks     map[BlockReason]uint64
}

// ThreadTimeline computes per-thread scheduling statistics.
func ThreadTimeline(events []Event) []ThreadStats {
	byThread := map[int32]*ThreadStats{}
	runningSince := map[int32]int64{}
	get := func(t int32) *ThreadStats {
		s := byThread[t]
		if s == nil {
			s = &ThreadStats{Thread: t, Blocks: map[BlockReason]uint64{}}
			byThread[t] = s
		}
		return s
	}
	for _, ev := range events {
		//varsim:allow kindexhaust timeline only inspects scheduling and txn events; the rest are deliberately skipped
		switch ev.Kind {
		case Dispatch:
			get(ev.Thread).Dispatches++
			runningSince[ev.Thread] = ev.TimeNS
		case Block:
			s := get(ev.Thread)
			s.Blocks[BlockReason(ev.Arg)]++
			if t0, ok := runningSince[ev.Thread]; ok {
				s.RunNS += ev.TimeNS - t0
				delete(runningSince, ev.Thread)
			}
		case TxnEnd:
			get(ev.Thread).Txns++
		}
	}
	out := make([]ThreadStats, 0, len(byThread))
	for _, t := range sortedKeys(byThread) {
		out = append(out, *byThread[t])
	}
	return out
}

// Divergence compares two traces' dispatch streams: it returns the index
// and times of the first differing dispatch, and how many of the
// dispatch slots from there on still agree — the quantitative form of
// the paper's Figure 1.
type Divergence struct {
	Prefix      int // identical leading dispatches
	ATimeNS     int64
	BTimeNS     int64
	Agreed      int     // agreeing slots among the Compared-Prefix after the prefix
	AgreedAfter float64 // Agreed as a fraction, in [0,1]
	Compared    int
}

// CompareDispatches computes the Divergence of two event streams.
func CompareDispatches(a, b []Event) Divergence {
	da := Dispatches(a)
	db := Dispatches(b)
	n := len(da)
	if len(db) < n {
		n = len(db)
	}
	d := Divergence{Prefix: n, Compared: n}
	for i := 0; i < n; i++ {
		if da[i].CPU != db[i].CPU || da[i].Thread != db[i].Thread {
			d.Prefix = i
			d.ATimeNS = da[i].TimeNS
			d.BTimeNS = db[i].TimeNS
			break
		}
	}
	if d.Prefix == n {
		d.AgreedAfter = 1
		return d
	}
	for i := d.Prefix; i < n; i++ {
		if da[i].CPU == db[i].CPU && da[i].Thread == db[i].Thread {
			d.Agreed++
		}
	}
	d.AgreedAfter = float64(d.Agreed) / float64(n-d.Prefix)
	return d
}

// Dispatches returns the Dispatch events of a trace, in order: the
// scheduling-event stream Figure 1 plots.
func Dispatches(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for _, ev := range events {
		if ev.Kind == Dispatch {
			out = append(out, ev)
		}
	}
	return out
}

// TxnEndTimes returns the completion time (ns) of every transaction in
// a trace, in order — what Figures 2, 3 and 8 bucket into intervals and
// windows.
func TxnEndTimes(events []Event) []int64 {
	var times []int64
	for _, ev := range events {
		if ev.Kind == TxnEnd {
			times = append(times, ev.TimeNS)
		}
	}
	return times
}

// FormatLockReport renders the top-n lock report as text.
func FormatLockReport(stats []LockStats, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %14s %14s %10s\n",
		"lock", "acquires", "contended", "total hold ns", "max hold ns", "cont/acq")
	for i, s := range stats {
		if i >= n {
			fmt.Fprintf(&b, "... %d more locks\n", len(stats)-n)
			break
		}
		fmt.Fprintf(&b, "%-8d %12d %12d %14d %14d %10.2f\n",
			s.Lock, s.Acquisitions, s.Contentions, s.HoldNS, s.MaxHoldNS, s.ContentionRate())
	}
	return b.String()
}
