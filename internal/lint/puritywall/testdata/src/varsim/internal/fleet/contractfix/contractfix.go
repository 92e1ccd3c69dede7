// Package contractfix sits under varsim/internal/fleet — a contract
// boundary package. Its wall-clock read must NOT taint wall callers:
// the transitive search stops at the contract boundary by design.
package contractfix

import "time"

// Sample reads the wall clock; the package's own contract
// (index-ordered merge) makes the crossing safe.
func Sample() int64 { return time.Now().UnixNano() }
