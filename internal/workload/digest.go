package workload

import "varsim/internal/digest"

// HashProgress implements Hasher: the shared feed position and log
// head (the timing-dependent work assignment the engine exists to
// model), plus every field of each thread's expansion state. The plan
// is summarized by its length and cursor rather than folded: its
// contents are a pure function of the transaction's feed index (the log
// head a transaction sees is too — claims happen in feed order) and of
// the thread, and the fork stream, seeded from that index, tells one
// transaction from another.
func (e *TxnEngine) HashProgress(h *digest.Hash) {
	h.I64(e.feed)
	h.U64(e.logHead)
	for i := range e.threads {
		t := &e.threads[i]
		h.I64(int64(t.next))
		h.I64(int64(len(t.plan)))
		h.I64(int64(t.class))
		h.U64(t.fork.Digest())
		h.U64(t.pc)
		h.U64(t.poff)
		h.I64(t.run)
		h.Bool(t.brNext)
		h.I64(int64(t.indIn))
		h.U64(t.row)
		h.I64(int64(t.step))
		h.I64(int64(t.flags))
	}
}

// HashProgress implements Hasher: each thread's position in the program
// and the state of the stream that decides its ops from there.
func (e *SciEngine) HashProgress(h *digest.Hash) {
	for i := range e.threads {
		t := &e.threads[i]
		h.U64(t.rng.Digest())
		h.I64(int64(t.phase))
		h.I64(int64(t.stage))
		h.I64(int64(t.i))
		h.U64(t.pc)
	}
}
