// Package digest computes cheap deterministic per-interval state
// digests — the divergence observatory's measurement primitive. Each
// simulated component (cache hierarchy, DRAM/bus queues, branch
// predictors, the OS scheduler, workload progress) folds its state into
// a 64-bit FNV-style hash once per sampling interval; per-component
// hash *chains* over those interval hashes give a monotone divergence
// signal: two runs' chains agree exactly until the first interval whose
// underlying state differed, and disagree at every interval after it.
// That monotonicity is what lets Diff binary-search two digest streams
// to the first divergent interval instead of scanning them.
//
// Everything here is pure arithmetic over values handed in by the
// machine — no I/O, no clocks, no global randomness — so the package
// lives inside the determinism wall (docs/DETERMINISM.md): recording
// digests never perturbs the simulated trajectory, and the same
// (config, seed) pair always yields byte-identical digest streams.
package digest

// FNV-1a 64-bit parameters, folded a word at a time: the digest mixes
// whole 64-bit values rather than bytes, trading a little diffusion for
// an 8x cheaper inner loop (state words vastly outnumber intervals).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash is an incremental word-folding FNV-1a hasher. The zero value is
// NOT valid; use New. Hash is a plain value: copying it snapshots the
// hasher state.
type Hash uint64

// New returns a hasher at the FNV-1a offset basis.
func New() Hash { return Hash(fnvOffset64) }

// U64 folds one 64-bit word.
func (h *Hash) U64(v uint64) {
	*h = Hash((uint64(*h) ^ v) * fnvPrime64)
}

// I64 folds one signed 64-bit word.
func (h *Hash) I64(v int64) { h.U64(uint64(v)) }

// U32 folds one 32-bit word.
func (h *Hash) U32(v uint32) { h.U64(uint64(v)) }

// I32 folds one signed 32-bit word.
func (h *Hash) I32(v int32) { h.U64(uint64(uint32(v))) }

// U8 folds one byte.
func (h *Hash) U8(v uint8) { h.U64(uint64(v)) }

// Bool folds one boolean.
func (h *Hash) Bool(v bool) {
	if v {
		h.U64(1)
	} else {
		h.U64(0)
	}
}

// Sum returns the current hash value.
func (h Hash) Sum() uint64 { return uint64(h) }

// Mix64 is a standalone strong 64-bit mixer (splitmix64's increment +
// finalizer), used by components that maintain incremental XOR-fold
// signatures: XOR aggregation needs every term well diffused, which
// plain FNV folding of near-identical inputs is not. Mix64(0) != 0, so
// a zero encoding still contributes; callers that want absent entries
// to contribute nothing must skip them explicitly.
func Mix64(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// Component identifies one digested subsystem. The order is part of the
// on-disk digest format: Vector is indexed by Component, and Diff lists
// the components forked at the first divergent interval in that order.
type Component uint8

const (
	// CompMem is the cache hierarchy's line-slab state (tags, coherence
	// states, dirtiness) across every node.
	CompMem Component = iota
	// CompDRAM is the memory-system queue state: controller and disk
	// bank availability plus the bus request queue.
	CompDRAM
	// CompBpred is the branch-predictor state (OOO model only; the
	// component never diverges under the simple processor).
	CompBpred
	// CompKernel is the OS scheduler state: threads, run queues, locks
	// and barriers.
	CompKernel
	// CompWorkload is workload progress: the shared transaction feed,
	// per-thread generator state and in-flight operations.
	CompWorkload

	// NumComponents is the Vector length.
	NumComponents = int(CompWorkload) + 1
)

// componentNames is indexed by Component; the exhaustiveness test pins
// it against NumComponents.
var componentNames = [NumComponents]string{
	"mem", "dram", "bpred", "kernel", "workload",
}

func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "invalid"
}

// Vector holds one value per component: either the raw per-interval
// state hashes handed to Recorder.Record, or the chained digests it
// stores.
type Vector [NumComponents]uint64

// Sample is one interval's chained digest vector. Interval is the
// 0-based tick index; TimeNS the simulated time of the tick (identical
// across runs branched from one checkpoint, since ticks fire at fixed
// simulated times).
type Sample struct {
	Interval int    `json:"interval"`
	TimeNS   int64  `json:"time_ns"`
	Chain    Vector `json:"chain"`
}

// Series is one run's full digest stream — what the journal persists
// and Diff compares. JSON round-trips exactly: uint64 chain words are
// decoded back into uint64 fields, never through float64.
type Series struct {
	IntervalNS int64    `json:"interval_ns"`
	Samples    []Sample `json:"samples"`
}

// Len returns the number of recorded intervals.
func (s Series) Len() int { return len(s.Samples) }

// Recorder accumulates a run's digest stream. Record chains each raw
// per-component state hash over the previous interval's chain value, so
// a one-interval state difference propagates to every later sample —
// the monotone property Diff's binary search requires.
type Recorder struct {
	intervalNS int64
	chain      Vector
	samples    []Sample
}

// NewRecorder builds a recorder for the given tick cadence.
func NewRecorder(intervalNS int64) *Recorder {
	if intervalNS <= 0 {
		panic("digest: recorder interval must be positive")
	}
	r := &Recorder{intervalNS: intervalNS}
	for i := range r.chain {
		r.chain[i] = fnvOffset64
	}
	return r
}

// Record chains the raw per-component state hashes for one interval and
// appends the resulting sample.
func (r *Recorder) Record(timeNS int64, raw Vector) Sample {
	for i := range r.chain {
		r.chain[i] = (r.chain[i] ^ raw[i]) * fnvPrime64
	}
	s := Sample{Interval: len(r.samples), TimeNS: timeNS, Chain: r.chain}
	r.samples = append(r.samples, s)
	return s
}

// Len returns the number of recorded intervals.
func (r *Recorder) Len() int { return len(r.samples) }

// IntervalNS returns the recorder's tick cadence.
func (r *Recorder) IntervalNS() int64 { return r.intervalNS }

// Series returns the recorded stream (the samples slice is shared; the
// recorder only ever appends).
func (r *Recorder) Series() Series {
	return Series{IntervalNS: r.intervalNS, Samples: r.samples}
}

// Clone deep-copies the recorder (for machine snapshots).
func (r *Recorder) Clone() *Recorder {
	cp := *r
	cp.samples = append([]Sample(nil), r.samples...)
	return &cp
}

// Divergence is Diff's verdict on a pair of digest streams.
type Divergence struct {
	// Diverged reports whether the streams differ anywhere (including
	// one stream simply being longer: the runs' drain schedules forked).
	Diverged bool `json:"diverged"`
	// Interval is the first divergent tick index; TimeNS its simulated
	// time (taken from whichever stream has the sample).
	Interval int   `json:"interval,omitempty"`
	TimeNS   int64 `json:"time_ns,omitempty"`
	// Components lists every component whose chain differs at the first
	// divergent interval, in Vector order — the subsystems that forked
	// within that one digest interval. Empty when the divergence is
	// length-only (the common prefix matches but one run recorded more
	// intervals).
	Components []Component `json:"components,omitempty"`
	// Compared is the number of intervals both streams cover.
	Compared int `json:"compared"`
}

// Diff binary-searches two digest streams for the first divergent
// interval. Chained digests are monotone — once divergent, divergent
// forever — so "first sample where the vectors differ" is a sorted
// predicate and the search is O(log n) vector compares.
func Diff(a, b Series) Divergence {
	n := len(a.Samples)
	if len(b.Samples) < n {
		n = len(b.Samples)
	}
	d := Divergence{Compared: n}
	// Invariant: lo..hi brackets the first index where the chains
	// differ, if any index in [0, n) does.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if a.Samples[mid].Chain == b.Samples[mid].Chain {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n {
		sa, sb := a.Samples[lo], b.Samples[lo]
		d.Diverged = true
		d.Interval = lo
		d.TimeNS = sa.TimeNS
		for c := 0; c < NumComponents; c++ {
			if sa.Chain[c] != sb.Chain[c] {
				d.Components = append(d.Components, Component(c))
			}
		}
		return d
	}
	if len(a.Samples) != len(b.Samples) {
		// Identical while both ran, but one run ticked longer: the runs
		// diverged in duration, and no component's chain differs.
		longer := a
		if len(b.Samples) > len(a.Samples) {
			longer = b
		}
		d.Diverged = true
		d.Interval = n
		if n < len(longer.Samples) {
			d.TimeNS = longer.Samples[n].TimeNS
		}
	}
	return d
}
