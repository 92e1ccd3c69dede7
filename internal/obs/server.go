// Package obs is the live observability layer: the progress ledger
// (Fleet) every session books its experiments on, and an HTTP server
// that renders it and the precision tracker while a run is live —
// fleet progress on /status, Prometheus text exposition on /metrics,
// the streaming precision report on /precision, net/http/pprof, and an
// embedded dashboard over all three.
//
// The simulator itself stays observation-free: nothing here touches a
// machine, and the server is started only when a CLI passes -http.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"varsim/internal/precision"
)

// Options wires a Server's data sources; any may be nil — the
// corresponding endpoints then serve empty-but-valid payloads.
type Options struct {
	Fleet     *Fleet             // /status, fleet gauges on /metrics
	Precision *precision.Tracker // /precision, precision gauges on /metrics
}

// Server is the observability HTTP server. Endpoints:
//
//	/           embedded dashboard (polls /status, /precision)
//	/metrics    Prometheus text exposition (version 0.0.4)
//	/status     fleet progress JSON (FleetStatus)
//	/precision  streaming precision report JSON (precision.Report)
//	/debug/pprof/...  Go's runtime profiler
type Server struct {
	opt   Options
	mux   *http.ServeMux
	hsrv  *http.Server
	ln    net.Listener
	start time.Time
}

// NewServer builds a server over the given sources without listening;
// use Handler with httptest or Serve to bind a real port.
func NewServer(opt Options) *Server {
	s := &Server{opt: opt, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("/", s.handleDashboard)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/status", s.handleStatus)
	s.mux.HandleFunc("/precision", s.handlePrecision)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve binds addr (e.g. ":8080" or "127.0.0.1:0") and serves in a
// background goroutine, returning once the listener is bound so callers
// can log the resolved address before the simulation starts.
func Serve(addr string, opt Options) (*Server, error) {
	s := NewServer(opt)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.mux}
	go s.hsrv.Serve(ln) //nolint:errcheck // Close's ErrServerClosed is expected
	return s, nil
}

// Addr returns the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener (no-op for handler-only servers).
func (s *Server) Close() error {
	if s.hsrv == nil {
		return nil
	}
	return s.hsrv.Close()
}

// ---- /metrics -------------------------------------------------------

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	write := func(name, kind string, v float64) {
		fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		fmt.Fprintf(w, "%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
	}

	write("varsim_obs_uptime_seconds", "gauge", time.Since(s.start).Seconds())
	if s.opt.Fleet != nil {
		st := s.opt.Fleet.Status()
		write("varsim_sim_cycles_total", "counter", float64(st.SimCycles))
		write("varsim_experiments_total", "gauge", float64(st.Total))
		write("varsim_experiments_done", "gauge", float64(st.Done))
		write("varsim_experiments_failed", "gauge", float64(st.Failed))
		write("varsim_experiments_running", "gauge", float64(len(st.Running)))
		if st.SimCyclesPerSec > 0 {
			write("varsim_sim_cycles_per_second", "gauge", st.SimCyclesPerSec)
		}
		if st.JobsTotal > 0 {
			write("varsim_fleet_workers_busy", "gauge", float64(st.WorkersBusy))
			write("varsim_fleet_jobs_done", "counter", float64(st.JobsDone))
			write("varsim_fleet_jobs_total", "counter", float64(st.JobsTotal))
		}
		if st.JournalAppended > 0 || st.JournalReplayed > 0 {
			write("varsim_journal_records_total", "counter", float64(st.JournalAppended))
			write("varsim_journal_lag", "gauge", float64(st.JournalLag))
			write("varsim_journal_replayed_total", "counter", float64(st.JournalReplayed))
		}
	}
	if rep := s.opt.Precision.Report(); len(rep.Rows) > 0 {
		converged := 0
		for _, row := range rep.Rows {
			if row.Converged {
				converged++
			}
		}
		write("varsim_precision_target_rel_err_pct", "gauge", 100*rep.RelErr)
		write("varsim_precision_tracked", "gauge", float64(len(rep.Rows)))
		write("varsim_precision_converged", "gauge", float64(converged))
		fmt.Fprintf(w, "# TYPE varsim_precision_runs gauge\n")
		for _, row := range rep.Rows {
			fmt.Fprintf(w, "varsim_precision_runs{experiment=%q,config=%q} %d\n",
				row.Experiment, row.ConfigHash, row.N)
		}
		fmt.Fprintf(w, "# TYPE varsim_precision_rel_half_width_pct gauge\n")
		for _, row := range rep.Rows {
			if row.Insufficient {
				continue // no interval yet; never export a placeholder
			}
			fmt.Fprintf(w, "varsim_precision_rel_half_width_pct{experiment=%q,config=%q} %s\n",
				row.Experiment, row.ConfigHash,
				strconv.FormatFloat(row.RelHalfWidthPct, 'g', -1, 64))
		}
		fmt.Fprintf(w, "# TYPE varsim_precision_runs_to_go gauge\n")
		for _, row := range rep.Rows {
			if row.Insufficient {
				continue
			}
			fmt.Fprintf(w, "varsim_precision_runs_to_go{experiment=%q,config=%q} %d\n",
				row.Experiment, row.ConfigHash, row.RunsToGo)
		}
	}
}

// ---- /status and /precision -----------------------------------------

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.opt.Fleet.Status())
}

// handlePrecision serves the streaming precision report; with no
// tracker wired (or nothing observed yet) it serves an empty report
// with a rows array, which clients read as "no precision data yet".
func (s *Server) handlePrecision(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.opt.Precision.Report())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// ---- dashboard ------------------------------------------------------

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}
