package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"webmeasure"
	"webmeasure/internal/trace"
)

// syncBuffer is a goroutine-safe bytes.Buffer: job-lifecycle records are
// written from worker goroutines while the test reads from its own.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTracedJobEndToEnd runs a job with tracing on and walks every trace
// surface: the artifact links, the Chrome trace-event JSON, the JSONL
// export, the /debug/traces ring, the 404 for untraced jobs, and the
// job-lifecycle log records.
func TestTracedJobEndToEnd(t *testing.T) {
	var logBuf syncBuffer
	logger, err := trace.NewLogger(&logBuf, "info", false)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Logger: logger})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := tinySpec(7)
	spec.TraceSample = 1
	v, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d", code)
	}
	v = pollDone(t, s, ts, v.ID)
	if v.State != StateDone {
		t.Fatalf("traced job ended %q (err %q)", v.State, v.Error)
	}
	if v.TraceCount == 0 || v.SpanCount == 0 {
		t.Fatalf("traced job reports %d traces / %d spans", v.TraceCount, v.SpanCount)
	}
	if v.Artifacts["trace"] == "" || v.Artifacts["trace_jsonl"] == "" {
		t.Fatalf("traced job missing trace artifacts: %v", v.Artifacts)
	}

	// The Chrome export must be loadable trace-event JSON covering the
	// crawl and analysis stages of the pipeline.
	code, chrome := get(t, ts.URL+v.Artifacts["trace"])
	if code != 200 {
		t.Fatalf("trace.json code = %d", code)
	}
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &tf); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" || len(tf.TraceEvents) == 0 {
		t.Fatalf("trace.json shape: unit %q, %d events", tf.DisplayTimeUnit, len(tf.TraceEvents))
	}
	names := map[string]bool{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "" {
			t.Fatalf("event %q missing ph", e.Name)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"crawl.visit", "crawl.fetch", "analyze.vet", "analyze.build", "analyze.compare", "treediff.intern", "treediff.fill"} {
		if !names[want] {
			t.Errorf("trace.json has no %q span", want)
		}
	}

	// The JSONL export is one valid span object per line.
	code, jsonl := get(t, ts.URL+v.Artifacts["trace_jsonl"])
	if code != 200 || len(jsonl) == 0 {
		t.Fatalf("trace.jsonl: code %d, %d bytes", code, len(jsonl))
	}
	lines := strings.Split(strings.TrimRight(string(jsonl), "\n"), "\n")
	if len(lines) != v.SpanCount {
		t.Errorf("trace.jsonl has %d lines, job reports %d spans", len(lines), v.SpanCount)
	}
	for _, line := range lines {
		var rec struct {
			Trace string `json:"trace"`
			Span  string `json:"span"`
			Name  string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace.jsonl line does not parse: %v: %s", err, line)
		}
		if rec.Trace == "" || rec.Span == "" || rec.Name == "" {
			t.Fatalf("trace.jsonl record missing ids: %s", line)
		}
	}

	// /debug/traces lists the job, newest first, and serves the same
	// bytes by job ID.
	code, dbg := get(t, ts.URL+"/debug/traces")
	if code != 200 {
		t.Fatalf("/debug/traces code = %d", code)
	}
	var ring struct {
		Traces []traceEntry `json:"traces"`
	}
	if err := json.Unmarshal(dbg, &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Traces) != 1 || ring.Traces[0].JobID != v.ID || ring.Traces[0].SpanCount != v.SpanCount {
		t.Fatalf("/debug/traces = %+v, want job %s with %d spans", ring.Traces, v.ID, v.SpanCount)
	}
	code, byID := get(t, ts.URL+"/debug/traces/"+v.ID)
	if code != 200 || !bytes.Equal(byID, chrome) {
		t.Fatalf("/debug/traces/%s: code %d, bytes equal %v", v.ID, code, bytes.Equal(byID, chrome))
	}

	// A job without tracing answers 404 on the trace routes and carries
	// no trace artifact link.
	plain, _ := postJob(t, ts, tinySpec(8))
	plain = pollDone(t, s, ts, plain.ID)
	if plain.Artifacts["trace"] != "" {
		t.Fatalf("untraced job advertises a trace artifact: %v", plain.Artifacts)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+plain.ID+"/trace.json"); code != http.StatusNotFound {
		t.Fatalf("untraced trace.json code = %d, want 404", code)
	}

	// Resubmitting the traced spec is a cache hit that replays the exact
	// trace bytes.
	again, code := postJob(t, ts, spec)
	if code != http.StatusOK || !again.CacheHit {
		t.Fatalf("traced resubmit: code %d, cache_hit %v", code, again.CacheHit)
	}
	_, chrome2 := get(t, ts.URL+"/v1/jobs/"+again.ID+"/trace.json")
	if !bytes.Equal(chrome, chrome2) {
		t.Fatal("cache hit served different trace.json bytes")
	}

	logs := logBuf.String()
	for _, want := range []string{`msg="job queued"`, `msg="job started"`, `msg="job done"`, "job=" + v.ID, "trace_sample=1"} {
		if !strings.Contains(logs, want) {
			t.Errorf("job log missing %q:\n%s", want, logs)
		}
	}
}

// TestTraceSampleInCacheKey: tracing changes what the job produces, so it
// must split the cache key; sampling rates are distinct experiments too.
func TestTraceSampleInCacheKey(t *testing.T) {
	limits := Limits{MaxSites: 2000, MaxPagesPerSite: 100}
	key := func(s JobSpec) string {
		t.Helper()
		n, err := s.normalize(limits)
		if err != nil {
			t.Fatal(err)
		}
		return n.cacheKey()
	}
	base := key(JobSpec{})
	if key(JobSpec{TraceSample: 1}) == base {
		t.Error("trace_sample=1 must change the cache key")
	}
	if key(JobSpec{TraceSample: 1}) == key(JobSpec{TraceSample: 100}) {
		t.Error("different sampling rates must not share a key")
	}
	if key(JobSpec{TraceSample: -3}) != base {
		t.Error("negative trace_sample must normalize to untraced")
	}
}

// promLineRe matches one exposition sample: name, optional label set,
// value. Label pairs are validated separately.
var (
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"$`)
)

// TestMetricsExpositionLint scrapes /metrics after a traced, fault-heavy
// job and lints the exposition text the way promtool's check does: the
// versioned Content-Type, a HELP and a TYPE header before every family's
// samples, valid metric and label names, parseable values, and no
// duplicate series.
func TestMetricsExpositionLint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := tinySpec(7)
	spec.TraceSample = 1
	spec.FaultProfile = "light"
	v, _ := postJob(t, ts, spec)
	if v = pollDone(t, s, ts, v.ID); v.State != StateDone {
		t.Fatalf("job ended %q (%s)", v.State, v.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", got)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()

	helped := map[string]bool{}
	typed := map[string]bool{}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			fam, help, _ := strings.Cut(rest, " ")
			if help == "" {
				t.Errorf("HELP without text: %q", line)
			}
			if helped[fam] {
				t.Errorf("duplicate HELP for %s", fam)
			}
			helped[fam] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			fam, kind := fields[2], fields[3]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("family %s has unknown type %q", fam, kind)
			}
			if typed[fam] {
				t.Errorf("duplicate TYPE for %s", fam)
			}
			if !helped[fam] {
				t.Errorf("family %s: TYPE precedes HELP", fam)
			}
			typed[fam] = true
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment line: %q", line)
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("unparseable sample line: %q", line)
			}
			name, labels, value := m[1], m[2], m[3]
			if labels != "" {
				for _, pair := range strings.Split(labels[1:len(labels)-1], ",") {
					if !promLabelRe.MatchString(pair) {
						t.Errorf("invalid label pair %q in %q", pair, line)
					}
				}
			}
			// _bucket/_sum/_count ride their histogram family's header.
			fam := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if b := strings.TrimSuffix(name, suffix); b != name && typed[b] {
					fam = b
					break
				}
			}
			if !typed[fam] || !helped[fam] {
				t.Errorf("series %s has no preceding HELP+TYPE header", name)
			}
			series := name + labels
			if seen[series] {
				t.Errorf("duplicate series %s", series)
			}
			seen[series] = true
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Errorf("series %s value %q does not parse: %v", series, value, err)
			}
		}
	}

	// The job must have populated the labeled families this PR adds.
	for _, want := range []string{
		`faults_injected_total{kind=`,
		`crawl_retries_total{kind=`,
		`crawl_visit_ms_bucket{profile=`,
		`trace_spans_total{stage="crawl.fetch"}`,
		`trace_span_us_count{stage="analyze.compare"}`,
		// Go runtime gauges, sampled at scrape time by handleMetrics.
		`go_goroutines`,
		`go_heap_inuse_bytes`,
		`go_gc_pause_p95_ms`,
		`process_uptime_seconds`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestServiceMetricsHaveHelp scrapes /metrics after one job and requires
// every service family to carry its own HELP text, not the generic
// fallback line of an undocumented family.
func TestServiceMetricsHaveHelp(t *testing.T) {
	s := New(Config{Workers: 1, Runner: func(context.Context, webmeasure.Config) (*webmeasure.Results, error) {
		return nil, errors.New("stub runner")
	}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, tinySpec(7))
	if v = pollDone(t, s, ts, v.ID); v.State != StateFailed {
		t.Fatalf("stub job ended %q, want %q", v.State, StateFailed)
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics code = %d", code)
	}
	families := 0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "# HELP service_") {
			continue
		}
		families++
		if strings.Contains(line, " webmeasure metric ") {
			t.Errorf("generic HELP text: %q", line)
		}
	}
	if families == 0 {
		t.Fatalf("/metrics lists no service family:\n%s", body)
	}
}
