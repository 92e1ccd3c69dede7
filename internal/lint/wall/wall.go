// Package wall is the single source of truth for the determinism
// wall's shape: which packages are inside it, and which packages
// outside it wall code may nonetheless call because they carry their
// own audited determinism contract.
//
// Two analyzers consume it. detwall (the fast first pass) scans wall
// packages syntactically for forbidden constructs at the call site.
// puritywall (the source of truth) walks the cross-package call graph
// and enforces the same contract transitively at function granularity,
// stopping only at the contract boundary below. Keeping both lists
// here means adding a package to the wall — or blessing a new boundary
// crossing — is one diff in one file, visible in review.
package wall

import "strings"

// prefixes lists the package paths inside the determinism wall. A
// package is inside the wall when its import path equals a prefix or
// sits beneath one. Everything inside must be a pure function of
// (config, seed).
var prefixes = []string{
	"varsim/internal/core",
	"varsim/internal/sim",
	"varsim/internal/machine",
	"varsim/internal/mem",
	"varsim/internal/dram",
	"varsim/internal/kernel",
	"varsim/internal/bpred",
	"varsim/internal/rng",
	"varsim/internal/stats",
	"varsim/internal/harness",
	"varsim/internal/checkpoint",
	"varsim/internal/workload",
	"varsim/internal/workloads",
	"varsim/internal/config",
	"varsim/internal/trace",
	"varsim/internal/digest",
}

// contractPrefixes lists the packages outside the wall that wall code
// may call: each carries its own audited contract making the crossing
// observationally deterministic, so puritywall's transitive search
// stops at their boundary instead of descending into their (wall-
// clocked, goroutine-launching) internals.
//
//   - fleet: index-ordered merge over pure jobs is byte-identical to
//     the sequential path at any width (docs/PARALLELISM.md).
//   - journal: keyed replay; write order is completion order but
//     resume reads by key, never by position (docs/RESILIENCE.md).
//   - metrics: a series is fixed columns read in a fixed order on the
//     simulation thread; its helpers and CSV writer walk them in that
//     order, and no map is iterated.
//   - report / plot: render after the simulation settles; their output
//     is a function of the already-deterministic results.
//   - profile: pprof labels never touch job inputs or the merge.
//   - precision: a pure observer fed from completion hooks; it feeds
//     nothing back into the simulation.
//   - sampling: barrier decisions are pure functions of the
//     index-ordered merged values of a completed round; the package's
//     live counters and published report are observe-only surfaces,
//     never inputs to a decision (docs/SAMPLING.md).
//   - faultinject: test-only scripted faults behind fleet.TestHook.
var contractPrefixes = []string{
	"varsim/internal/fleet",
	"varsim/internal/journal",
	"varsim/internal/metrics",
	"varsim/internal/report",
	"varsim/internal/plot",
	"varsim/internal/profile",
	"varsim/internal/precision",
	"varsim/internal/sampling",
	"varsim/internal/faultinject",
}

// Inside reports whether the package at path is inside the
// determinism wall.
func Inside(path string) bool { return hasPrefix(path, prefixes) }

// Contract reports whether the package at path is a blessed boundary
// package: outside the wall, callable from inside it.
func Contract(path string) bool { return hasPrefix(path, contractPrefixes) }

func hasPrefix(path string, set []string) bool {
	for _, p := range set {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
