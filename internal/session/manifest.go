package session

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"varsim/internal/obs"
)

// Manifest records a run's provenance: what was run, with which
// configuration and seeds, on what host and toolchain, and how fast —
// so any exported table or time series can be traced back to the exact
// run that produced it and throughput regressions show up in the
// artifact trail. Its throughput and experiment rows are the progress
// ledger's (obs.Fleet): the manifest is /status at Close.
type Manifest struct {
	Tool       string   `json:"tool"`            // binary name, e.g. "varsim"
	Args       []string `json:"args,omitempty"`  // command line as invoked
	Seed       uint64   `json:"seed"`            // workload identity seed
	ConfigHash string   `json:"config_hash"`     // hash of the resolved configuration
	Quick      bool     `json:"quick,omitempty"` // scaled-down smoke run
	GoVersion  string   `json:"go_version"`      // runtime.Version()
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GitCommit  string   `json:"git_commit,omitempty"` // vcs.revision from build info
	GitDirty   bool     `json:"git_dirty,omitempty"`  // vcs.modified from build info
	Host       string   `json:"host,omitempty"`       // os.Hostname()
	StartTime  string   `json:"start_time"`           // RFC 3339
	EndTime    string   `json:"end_time,omitempty"`   // RFC 3339, set by finish
	WallSecs   float64  `json:"wall_seconds"`         // the ledger's elapsed wall clock, set by finish
	// Incomplete marks a run that drained early (SIGINT/SIGTERM): the
	// artifacts cover only the journaled subset and the run should be
	// resumed with -resume. See docs/RESILIENCE.md.
	Incomplete bool `json:"incomplete,omitempty"`

	// SimCycles is the simulated cycles advanced during the run;
	// SimCyclesPerSec the resulting throughput (cycles are nanoseconds at
	// the modelled 1 GHz clock).
	SimCycles       int64   `json:"sim_cycles,omitempty"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`

	// Experiments are the ledger's rows for every experiment that
	// started, in the order the tool listed them.
	Experiments []obs.ExperimentStatus `json:"experiments,omitempty"`
}

// newManifest starts a manifest for the named tool, stamping toolchain,
// host and start time.
func newManifest(tool string, seed uint64) *Manifest {
	host, _ := os.Hostname()
	m := &Manifest{
		Tool:      tool,
		Seed:      seed,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Host:      host,
		StartTime: time.Now().UTC().Format(time.RFC3339),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		m.GitCommit, m.GitDirty = vcsFromSettings(info.Settings)
	}
	return m
}

// vcsFromSettings extracts the VCS revision and dirty flag that the Go
// toolchain stamps into binaries built inside a repository. Both are
// zero when the build had no VCS info (go test binaries, `go run` of a
// file list, -buildvcs=false).
func vcsFromSettings(settings []debug.BuildSetting) (commit string, dirty bool) {
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			commit = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return commit, dirty
}

// finish stamps the end time and copies the ledger's totals and the
// rows of every experiment that started.
func (m *Manifest) finish(st obs.FleetStatus) {
	m.EndTime = time.Now().UTC().Format(time.RFC3339)
	m.WallSecs = st.ElapsedSecs
	m.SimCycles, m.SimCyclesPerSec = st.SimCycles, st.SimCyclesPerSec
	for _, e := range st.Experiments {
		if e.State != obs.StatePending {
			m.Experiments = append(m.Experiments, e)
		}
	}
}

// writeFile writes the manifest to path as indented JSON.
func (m *Manifest) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
