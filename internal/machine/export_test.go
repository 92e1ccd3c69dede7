package machine

import "varsim/internal/workload"

// WrapWorkload replaces the machine's workload instance with
// wrap(instance), through the assignment New and SnapshotOver use — so
// an external test can count a recipe-built machine's calls.
func (m *Machine) WrapWorkload(wrap func(workload.Instance) workload.Instance) {
	m.setWorkload(wrap(m.wl))
}

// BulkRuns reports whether the machine consumes compute runs through
// its workload's bulk form.
func (m *Machine) BulkRuns() bool { return m.runs != nil }
