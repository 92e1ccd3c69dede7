// Package samplingok mirrors the real internal/sampling package: the
// adaptive scheduler's pure decision procedures plus its observe-only
// live counters, *outside* the determinism wall as a blessed contract
// package. detwall must stay silent here — the counters are mutated
// from fleet completion hooks in host order, but barrier decisions are
// pure functions of the index-ordered merged values, never of the
// counters (docs/SAMPLING.md). This fixture pins that placement: if
// sampling is ever added to wallPrefixes by accident, this file starts
// failing.
package samplingok

import (
	"sync"
	"sync/atomic"
)

// executed is a process-wide observe-only counter, like
// sampling.CountRound's backing atomics.
var executed atomic.Int64

// CountRound books one round's runs, fed from completion hooks.
func CountRound(n int) { executed.Add(int64(n)) }

// holder publishes the latest report snapshot for live surfaces under
// a lock, an observe-only value like the counters.
type holder struct {
	mu  sync.Mutex
	rep []float64
}

// Publish replaces the held snapshot under the lock.
func (h *holder) Publish(rep []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rep = append([]float64(nil), rep...)
}

// Decide is the pure barrier rule: a function of the merged values
// only — no clock, no counters, no completion order.
func Decide(values []float64, minRuns int) bool {
	return len(values) >= minRuns
}
