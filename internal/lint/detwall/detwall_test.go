package detwall_test

import (
	"testing"

	"varsim/internal/lint/analysistest"
	"varsim/internal/lint/detwall"
)

func TestDetwall(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), detwall.Analyzer,
		"varsim/internal/mem/underwall",
		"varsim/internal/mem/cowok",
		"varsim/internal/report/heartbeatfix",
		"varsim/internal/fleet/fleetok",
		"varsim/internal/core/corewall",
		"varsim/internal/harness/harnesswall",
		"varsim/internal/journal/journalok",
		"varsim/internal/digest/digestwall",
		"varsim/internal/precision/precisionok",
		"varsim/internal/sampling/samplingok",
		"varsim/internal/core/adaptivewall",
	)
}

func TestInsideWall(t *testing.T) {
	for path, want := range map[string]bool{
		"varsim/internal/sim":          true,
		"varsim/internal/mem":          true,
		"varsim/internal/mem/sub":      true,
		"varsim/internal/digest":       true, // digests hash sim state; host inputs would fork them
		"varsim/internal/report":       false,
		"varsim/internal/obs":          false,
		"varsim/internal/fleet":        false, // the scheduler lives outside the wall by design
		"varsim/internal/fleet/sub":    false,
		"varsim/internal/journal":      false, // durable I/O records results, it never feeds them
		"varsim/internal/precision":    false, // pure observer of fleet completions, feeds nothing back
		"varsim/internal/sampling":     false, // pure barrier decisions + observe-only counters, a blessed contract
		"varsim/internal/memx":         false, // prefix must match a path segment
		"varsim/internal/lint/detwall": false,
	} {
		if got := detwall.InsideWall(path); got != want {
			t.Errorf("InsideWall(%q) = %v, want %v", path, got, want)
		}
	}
}
