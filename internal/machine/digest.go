package machine

import (
	"varsim/internal/digest"
	"varsim/internal/sim"
	"varsim/internal/workload"
)

// bpredFullEvery is the cadence (in digest intervals) of the full
// branch-predictor table fold: the cheap behavioral summary runs every
// interval, the ~100k-entry-per-core table fold every k-th, bounding
// pure-table-skew detection lag to k intervals at 1/k the cost.
const bpredFullEvery = 16

// EnableDigests starts per-interval state digesting: every intervalNS
// of simulated time a KindDrain tick folds each component's state into
// the run's digest chains (see internal/digest). Digesting is
// observation-only — it never touches simulated state, so the simulated
// trajectory is unchanged; the one thing it may write is a host-side
// cache of it, the cache signatures mem.Cache.StateSig folds on first
// read. When metric sampling is also
// enabled the intervals must match; both ride one KindDrain stream.
// Calling it again is a no-op.
func (m *Machine) EnableDigests(intervalNS int64) {
	if m.digestRec != nil {
		return
	}
	if m.sampler != nil && m.sampler.IntervalNS != intervalNS {
		panic("machine: digest interval must match the sampling interval (both ride one KindDrain stream)")
	}
	armed := m.sampler != nil // sampling already scheduled the drain ticks
	m.digestRec = digest.NewRecorder(intervalNS)
	if !armed {
		m.eng.Schedule(intervalNS, sim.KindDrain, 0, 0)
	}
}

// DigestSeries returns the recorded digest stream (empty unless
// EnableDigests was called).
func (m *Machine) DigestSeries() digest.Series {
	if m.digestRec == nil {
		return digest.Series{}
	}
	return m.digestRec.Series()
}

// recordDigest folds every component's state and chains one sample.
func (m *Machine) recordDigest() {
	m.digestRec.Record(m.eng.Now(), m.digestVector())
}

// hashOp folds the identity of a buffered operation.
func hashOp(h *digest.Hash, op *workload.Op) {
	h.U8(uint8(op.Kind))
	h.I64(op.N)
	h.U64(op.Addr)
	h.I32(op.ID)
	h.U32(op.Site)
	h.Bool(op.Taken)
	h.U64(op.PC)
}

// digestVector computes the raw per-component state hashes for the
// current instant. Costs are kept off the simulation hot paths: the
// cache hierarchy contributes O(caches) signatures — folded once, in
// O(lines), at a lineage's first digest, which fills that host-side
// cache of simulated state without touching the state itself, and kept
// current by the cache writes from then on (see mem.Cache.StateSig) —
// and the predictor tables are folded in full only every
// bpredFullEvery-th interval.
func (m *Machine) digestVector() digest.Vector {
	var raw digest.Vector

	h := digest.New()
	m.snoop.HashInto(&h)
	raw[digest.CompMem] = h.Sum()

	// DRAM component: controller and disk queues plus the snooping
	// bus — its request queue (order included: grant order is
	// timing-dependent) and arbiter state.
	h = digest.New()
	m.dram.HashInto(&h)
	m.disks.HashInto(&h)
	h.U64(uint64(len(m.bus.q)))
	for i := range m.bus.q {
		r := &m.bus.q[i]
		h.I32(r.cpu)
		h.U64(r.block)
		h.U8(uint8(r.kind))
		h.I64(r.issuedAt)
		h.Bool(r.ifetch)
		h.I64(r.token)
	}
	h.Bool(m.bus.busy)
	h.I64(m.bus.freeAt)
	h.U64(m.bus.reqs)
	raw[digest.CompDRAM] = h.Sum()

	h = digest.New()
	full := (m.digestRec.Len()+1)%bpredFullEvery == 0
	for i := range m.cpus {
		if c := m.cpus[i].ooo; c != nil {
			c.bp.HashInto(&h, full)
		}
	}
	raw[digest.CompBpred] = h.Sum()

	h = digest.New()
	m.os.HashInto(&h)
	raw[digest.CompKernel] = h.Sum()

	// Workload progress: generator state if the instance exposes it,
	// plus the machine's own progress counters and in-flight op state
	// (parked and per-CPU pending ops are claimed-but-unexecuted work —
	// exactly the state a pure generator digest can't see).
	h = digest.New()
	if wh, ok := m.wl.(workload.Hasher); ok {
		wh.HashProgress(&h)
	}
	h.I64(m.txnsDone)
	h.I64(m.lastTxnNS)
	h.I64(m.instrs)
	for tid := range m.parkedOk {
		if m.parkedOk[tid] {
			h.I64(int64(tid))
			hashOp(&h, &m.parkedOps[tid])
			h.I64(int64(m.parkedSpin[tid]))
		}
	}
	for i := range m.cpus {
		cs := &m.cpus[i]
		h.Bool(cs.hasPending)
		if cs.hasPending {
			hashOp(&h, &cs.pending)
		}
		h.Bool(cs.waitingMem)
		h.I64(int64(cs.spins))
	}
	raw[digest.CompWorkload] = h.Sum()

	return raw
}
