package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"varsim/internal/obs"
	"varsim/internal/precision"
)

func TestWritePrecision(t *testing.T) {
	var buf bytes.Buffer
	WritePrecision(&buf, precision.Report{})
	if got := buf.String(); got != "precision: no observations\n" {
		t.Errorf("empty report rendered %q", got)
	}

	trk := precision.New(0.04, 0.95)
	for _, v := range []float64{250, 251, 249, 250.5, 249.5} {
		trk.Observe("table1", "cfg-tight", v)
	}
	trk.Observe("table1", "cfg-single", 300) // insufficient: one run
	trk.Observe("table2", "cfg-wide", 100)
	trk.Observe("table2", "cfg-wide", 180)
	trk.Observe("table2", "cfg-wide", math.NaN()) // rejected

	buf.Reset()
	WritePrecision(&buf, trk.Report())
	out := buf.String()
	for _, want := range []string{
		"target ±4% of the mean at 95% confidence",
		"n<2 (insufficient)",
		"converged",
		"converging, 1 rejected",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("rendered table leaked a non-finite value:\n%s", out)
	}
}

// TestHeartbeatPrecisionColumn pins the heartbeat's precision fragment
// on the line as cmd/experiments composes it (the progress ledger's
// status, then the precision tracker's summary): absent until the
// tracker has something to say, present afterwards.
func TestHeartbeatPrecisionColumn(t *testing.T) {
	var buf bytes.Buffer
	st := obs.FleetStatus{Total: 2}
	trk := precision.New(0.04, 0.95)
	h := StartHeartbeat(&buf, time.Hour, func() string {
		line := st.Line()
		if p := trk.Summary(); p != "" {
			line += ", " + p
		}
		return line
	})
	defer h.Stop()

	h.beat()
	if line := buf.String(); strings.Contains(line, "precision") {
		t.Errorf("line mentions precision before any observation: %q", line)
	}
	trk.Observe("table1", "c", 250)
	trk.Observe("table1", "c", 250.5)
	buf.Reset()
	h.beat()
	if line := buf.String(); !strings.Contains(line, "0/2 experiments") || !strings.Contains(line, "precision 1/1 at ±4%") {
		t.Errorf("line missing progress or precision fragment: %q", line)
	}
}
