package service

// Debug-surface handlers: the /debug/ index, the drift-monitor status
// endpoint, and the scrape-time Go runtime gauges.

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"webmeasure/internal/drift"
)

// handleDebugIndex serves a plain HTML index of the debug endpoints, so
// an operator pointed at /debug/ can discover the rest.
func (s *Server) handleDebugIndex(w http.ResponseWriter, _ *http.Request) {
	type entry struct{ path, desc string }
	entries := []entry{
		{"/debug/pprof/", "live profiling (go tool pprof)"},
		{"/debug/traces", "recent traced jobs, newest first"},
		{"/debug/drift", "longitudinal drift monitor status"},
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html>\n<html><head><title>webmeasure debug</title></head><body>\n")
	fmt.Fprint(w, "<h1>webmeasure debug endpoints</h1>\n<ul>\n")
	for _, e := range entries {
		fmt.Fprintf(w, "<li><a href=%q>%s</a> — %s</li>\n", e.path, e.path, e.desc)
	}
	fmt.Fprint(w, "</ul>\n</body></html>\n")
}

// driftView is the /debug/drift response body.
type driftView struct {
	MonitorStatus
	// LastDelta is the newest sequential epoch-over-epoch delta.
	LastDelta *drift.Delta `json:"last_delta,omitempty"`
	// LastPinned is the newest delta against the pinned baseline.
	LastPinned *drift.Delta `json:"last_pinned,omitempty"`
	// RecentAlerts holds the newest alerts, oldest first.
	RecentAlerts []drift.Alert `json:"recent_alerts,omitempty"`
}

// debugDriftAlerts bounds the /debug/drift recent-alerts listing.
const debugDriftAlerts = 20

// handleDrift serves the drift monitor's live status: progress through
// the epoch schedule, the latest deltas, and the recent alerts. When
// monitor mode is off it answers 404 so probes can tell "not enabled"
// from "no drift yet".
func (s *Server) handleDrift(w http.ResponseWriter, _ *http.Request) {
	m := s.monitor
	if m == nil {
		writeError(w, http.StatusNotFound, "drift monitor not enabled (start the server in monitor mode)")
		return
	}
	view := driftView{MonitorStatus: m.status()}
	m.mu.Lock()
	view.LastDelta = m.lastDelta
	view.LastPinned = m.lastPinned
	view.RecentAlerts = append([]drift.Alert(nil), m.recent...)
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// sampleRuntime refreshes the Go runtime gauges the /metrics endpoint
// exports. Called per scrape.
func (s *Server) sampleRuntime() {
	s.reg.Gauge("go.goroutines").Set(int64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge("go.heap_inuse_bytes").Set(int64(ms.HeapInuse))
	s.reg.FloatGauge("go.gc_pause_p95_ms").Set(gcPauseP95MS(&ms))
	s.reg.FloatGauge("process.uptime_seconds").Set(time.Since(s.started).Seconds())
}

// gcPauseP95MS computes the 95th-percentile GC stop-the-world pause in
// milliseconds over the runtime's ring of recent pauses (up to 256).
func gcPauseP95MS(ms *runtime.MemStats) float64 {
	n := int(ms.NumGC)
	if n == 0 {
		return 0
	}
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	pauses := make([]uint64, n)
	copy(pauses, ms.PauseNs[:n])
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	idx := (n*95 + 99) / 100 // ceil(0.95n), 1-based
	if idx < 1 {
		idx = 1
	}
	return float64(pauses[idx-1]) / 1e6
}
