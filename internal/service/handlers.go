package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"webmeasure/internal/core"
	"webmeasure/internal/dataset"
	"webmeasure/internal/version"
)

// datasetFlushEvery is how many visits a streamed JSONL download writes
// between flushes to the client.
const datasetFlushEvery = 256

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs                  submit a JobSpec (JSON body)
//	GET    /v1/jobs                  list jobs in submission order
//	GET    /v1/jobs/{id}             job status
//	DELETE /v1/jobs/{id}             cancel a queued/running job
//	GET    /v1/jobs/{id}/report      rendered text report
//	GET    /v1/jobs/{id}/result.json JSON result bundle
//	GET    /v1/jobs/{id}/result.csv  concatenated CSV tables
//	GET    /v1/jobs/{id}/dataset.jsonl streamed raw visits
//	GET    /v1/jobs/{id}/dataset.col   raw visits in the columnar format
//	GET    /v1/jobs/{id}/trace.json  Chrome trace-event JSON (404 if untraced)
//	GET    /v1/jobs/{id}/trace.jsonl span-per-line trace export
//	GET    /healthz                  liveness, build identity, uptime, stats
//	GET    /metrics                  Prometheus text exposition
//	GET    /debug/                   index of the debug endpoints
//	GET    /debug/pprof/             live profiling (go tool pprof)
//	GET    /debug/traces             recent traced jobs, newest first
//	GET    /debug/traces/{id}        trace.json by job ID (chrome://tracing)
//	GET    /debug/drift              drift-monitor status, last delta, alerts
//
// POST /v1/jobs answers 202 with the job, or 200 when the cache already
// holds its result; 400 for a spec that does not decode or validate,
// negative sites, pages_per_site, tranco_size or instances included (zero
// or an absent field means the default); 429 with Retry-After when the
// queue is full; 503 while draining. Errors are the JSON envelope
// {"error": "..."}.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Live profiling of the serving process: `go tool pprof
	// http://host/debug/pprof/profile` for CPU, `/debug/pprof/heap` for
	// allocations — the serving-mode counterpart of cmd/analyze's
	// -cpuprofile/-memprofile flags. Wired explicitly so the service mux
	// never depends on http.DefaultServeMux.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.artifact(func(r *result) ([]byte, string) {
		return r.report, "text/plain; charset=utf-8"
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/result.json", s.artifact(func(r *result) ([]byte, string) {
		return r.json, "application/json"
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/result.csv", s.artifact(func(r *result) ([]byte, string) {
		return r.csv, "text/csv; charset=utf-8"
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/dataset.jsonl", s.handleDataset)
	mux.HandleFunc("GET /v1/jobs/{id}/dataset.col", s.handleDatasetCol)
	mux.HandleFunc("GET /v1/jobs/{id}/partial.json", s.handlePartial)
	mux.HandleFunc("GET /v1/jobs/{id}/trace.json", s.traceArtifact(func(r *result) ([]byte, string) {
		return r.traceChrome, "application/json"
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/trace.jsonl", s.traceArtifact(func(r *result) ([]byte, string) {
		return r.traceJSONL, "application/x-ndjson"
	}))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// "GET /debug/{$}" matches exactly /debug/ — Go 1.22 precedence keeps
	// the more specific pprof/traces/drift routes intact.
	mux.HandleFunc("GET /debug/{$}", s.handleDebugIndex)
	mux.HandleFunc("GET /debug/traces", s.handleTraceList)
	mux.HandleFunc("GET /debug/drift", s.handleDrift)
	mux.HandleFunc("GET /debug/traces/{id}", s.traceArtifact(func(r *result) ([]byte, string) {
		return r.traceChrome, "application/json"
	}))
	return mux
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: "+err.Error())
		return
	}
	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Tell the client when a slot should open, from the pool's drain
		// rate (recent mean job duration over the workers).
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.mu.Lock()
	view := job.view()
	s.mu.Unlock()
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	code := http.StatusAccepted
	if view.State == StateDone { // served straight from cache
		code = http.StatusOK
	}
	writeJSON(w, code, view)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]jobJSON, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	s.mu.Lock()
	view := job.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	s.mu.Lock()
	view := job.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// artifact builds a handler serving one rendered artifact of a finished
// job. Unfinished jobs answer 409 with the job state so pollers can tell
// "not yet" from "never".
func (s *Server) artifact(pick func(*result) ([]byte, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		res, ok := s.finishedResult(w, r)
		if !ok {
			return
		}
		body, contentType := pick(res)
		if body == nil {
			// A shard job publishes partial.json, not the report family.
			writeError(w, http.StatusNotFound, "job holds no such artifact")
			return
		}
		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(body)
	}
}

// handleDataset serves the job's visits as JSON Lines, decoded from the
// held columnar bytes on every download and streamed with periodic
// flushes.
func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	col, ok := s.heldDataset(w, r)
	if !ok {
		return
	}
	ds, err := dataset.ReadCol(bytes.NewReader(col))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "decode held dataset: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = ds.StreamJSONL(w, datasetFlushEvery)
}

// handleDatasetCol serves the job's held columnar bytes — available for
// every finished job, whatever its requested DatasetFormat, since the
// encoding is a pure function of the visits.
func (s *Server) handleDatasetCol(w http.ResponseWriter, r *http.Request) {
	col, ok := s.heldDataset(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(col)
}

// heldDataset resolves the request's finished job and returns the
// columnar visits it holds (a shard job's decoded from its partial),
// writing the error response itself otherwise.
func (s *Server) heldDataset(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	res, ok := s.finishedResult(w, r)
	if !ok {
		return nil, false
	}
	if res.partial == nil {
		return res.datasetCol, true
	}
	p, err := core.DecodePartial(res.partial)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "decode held partial: "+err.Error())
		return nil, false
	}
	return p.Dataset, true
}

// handlePartial serves a shard job's encoded partial. Whole-experiment
// jobs answer 404 — their artifacts are the rendered report family.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	res, ok := s.finishedResult(w, r)
	if !ok {
		return
	}
	if res.partial == nil {
		writeError(w, http.StatusNotFound, "job is not a shard job (set shards and shard in the spec)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(res.partial)
}

// finishedResult resolves the request's job and returns its result,
// writing the error response itself when the job is missing or not done.
func (s *Server) finishedResult(w http.ResponseWriter, r *http.Request) (*result, bool) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return nil, false
	}
	s.mu.Lock()
	state, res, errMsg := job.state, job.res, job.err
	s.mu.Unlock()
	switch state {
	case StateDone:
		return res, true
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: "+errMsg)
	case StateCanceled:
		writeError(w, http.StatusGone, "job canceled: "+errMsg)
	default:
		writeError(w, http.StatusConflict, "job not finished (state "+string(state)+")")
	}
	return nil, false
}

// traceArtifact serves a trace rendering of a finished job. A finished
// job that ran without tracing answers 404 — "this job has no trace" is
// a different condition from "job not finished" (409 via finishedResult).
func (s *Server) traceArtifact(pick func(*result) ([]byte, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		res, ok := s.finishedResult(w, r)
		if !ok {
			return
		}
		body, contentType := pick(res)
		if body == nil {
			writeError(w, http.StatusNotFound, "job ran without tracing (set trace_sample in the spec)")
			return
		}
		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(body)
	}
}

// handleTraceList serves the recent-traces ring: the last finished traced
// jobs, newest first, each linking to its trace.json.
func (s *Server) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	entries := make([]traceEntry, len(s.traces))
	copy(entries, s.traces)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"traces": entries})
}

// handleHealthz answers liveness with the build identity, process
// uptime, queue/pool stats, and (when monitor mode is on) the drift
// monitor's progress — one probe tells an operator what is running,
// for how long, and whether the longitudinal loop is healthy.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"version":        version.Version,
		"build":          version.String(),
		"go_version":     runtime.Version(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"stats":          s.Stats(),
	}
	if st, ok := s.MonitorStatus(); ok {
		body["monitor"] = st
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Runtime gauges are sampled at scrape time, not on a background
	// ticker — scrapes always see current values and an idle server burns
	// no cycles keeping them fresh.
	s.sampleRuntime()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.Snapshot().WritePrometheus(w)
}
