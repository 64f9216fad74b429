package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"webmeasure/internal/metrics"
)

// TestIDsDeterministic: trace and span IDs are pure functions of
// (seed, names, keys) — two tracers over the same logical work agree,
// and a different seed disagrees.
func TestIDsDeterministic(t *testing.T) {
	build := func(seed int64) (TraceID, SpanID, SpanID) {
		tr := New(Options{Seed: seed}).Trace("page", "site-a|https://a/x")
		root := tr.Span(nil, "crawl.visit", "Old", 100)
		child := tr.Span(root, "crawl.fetch", "Old#1", 100)
		return tr.ID, root.ID, child.ID
	}
	t1, r1, c1 := build(7)
	t2, r2, c2 := build(7)
	if t1 != t2 || r1 != r2 || c1 != c2 {
		t.Fatalf("same seed produced different IDs: %v/%v/%v vs %v/%v/%v", t1, r1, c1, t2, r2, c2)
	}
	t3, r3, c3 := build(8)
	if t1 == t3 && r1 == r3 && c1 == c3 {
		t.Fatal("different seed produced identical IDs")
	}
	if r1 == c1 {
		t.Fatal("parent and child span IDs collide")
	}
	if len(t1.String()) != 16 || len(r1.String()) != 16 {
		t.Fatalf("IDs must render as 16 hex digits, got %q / %q", t1, r1)
	}
}

// TestSiblingKeysDisambiguate: same span name under the same parent must
// yield distinct IDs when the keys differ.
func TestSiblingKeysDisambiguate(t *testing.T) {
	tr := New(Options{Seed: 1}).Trace("page", "k")
	root := tr.Span(nil, "crawl.visit", "Old", 0)
	a := tr.Span(root, "crawl.fetch", "Old#1", 0)
	b := tr.Span(root, "crawl.fetch", "Old#2", 0)
	if a.ID == b.ID {
		t.Fatal("sibling fetch attempts share a span ID")
	}
}

// TestSampling: head-based sampling keeps a deterministic subset and the
// same keys on every tracer with the same seed.
func TestSampling(t *testing.T) {
	keys := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		keys = append(keys, strings.Repeat("k", 1+i%7)+string(rune('a'+i%26)))
	}
	pick := func() map[string]bool {
		tc := New(Options{Seed: 3, SampleEvery: 10})
		kept := map[string]bool{}
		for _, k := range keys {
			if tc.Trace("page", k) != nil {
				kept[k] = true
			}
		}
		return kept
	}
	a, b := pick(), pick()
	if len(a) == 0 || len(a) == len(keys) {
		t.Fatalf("1-in-10 sampling kept %d of %d traces", len(a), len(keys))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("sampling is not deterministic: %q kept once", k)
		}
	}
	if len(a) != len(b) {
		t.Fatalf("sampling kept %d then %d", len(a), len(b))
	}
	// SampleEvery 1 keeps everything.
	full := New(Options{Seed: 3, SampleEvery: 1})
	for _, k := range keys {
		if full.Trace("page", k) == nil {
			t.Fatalf("unsampled tracer dropped %q", k)
		}
	}
}

// TestNilSafety: every method on nil tracer/trace/span is a no-op.
func TestNilSafety(t *testing.T) {
	var tc *Tracer
	if tc.Enabled() {
		t.Fatal("nil tracer claims enabled")
	}
	tr := tc.Trace("page", "k")
	if tr != nil {
		t.Fatal("nil tracer handed out a trace")
	}
	s := tr.Span(nil, "x", "", 0)
	if s != nil {
		t.Fatal("nil trace handed out a span")
	}
	s.SetAttr("a", "b").SetAttrInt("c", 1)
	s.AddEvent("e", 0)
	s.End(10)
	if s.DurUS() != 0 || s.Trace() != nil {
		t.Fatal("nil span misbehaves")
	}
	if err := tc.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tc.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if got := tc.StageBreakdown(); got != nil {
		t.Fatalf("nil tracer breakdown = %v", got)
	}
	if tc.TraceCount() != 0 || tc.SpanCount() != 0 || tc.Dropped() != 0 {
		t.Fatal("nil tracer counts non-zero")
	}
}

// TestMaxTracesValve drops and counts traces beyond the cap.
func TestMaxTracesValve(t *testing.T) {
	tc := New(Options{Seed: 1, MaxTraces: 2})
	if tc.Trace("page", "a") == nil || tc.Trace("page", "b") == nil {
		t.Fatal("traces under the cap dropped")
	}
	if tc.Trace("page", "c") != nil {
		t.Fatal("trace beyond the cap retained")
	}
	if tc.Trace("page", "a") == nil {
		t.Fatal("existing trace refused after the cap filled")
	}
	if tc.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tc.Dropped())
	}
}

// populate records a deterministic little workload; spans are appended in
// an order unlike the canonical export order on purpose.
func populate(tc *Tracer) {
	tr := tc.Trace("page", "site-b|https://b/y")
	v := tr.Span(nil, "crawl.visit", "Sim1", 2_000_000).SetAttr("profile", "Sim1")
	f2 := tr.Span(v, "crawl.fetch", "Sim1#2", 2_500_000).SetAttr("profile", "Sim1")
	f2.End(2_600_000)
	f1 := tr.Span(v, "crawl.fetch", "Sim1#1", 2_000_000).SetAttr("profile", "Sim1")
	f1.AddEvent("retry.decided", 2_400_000, Attr{Key: "kind", Value: "latency"})
	f1.End(2_400_000)
	v.End(2_600_000)

	tr2 := tc.Trace("page", "site-a|https://a/x")
	b := tr2.Span(nil, "analyze.build", "Old", 600_000_000).SetAttrInt("requests", 12)
	b.End(600_000_240)
}

// TestExportOrderingDeterministic: exports sort by (trace name, key) and
// span (start, name, key, id), independent of insertion order.
func TestExportOrderingDeterministic(t *testing.T) {
	a, b := New(Options{Seed: 5}), New(Options{Seed: 5})
	populate(a)
	populate(b)
	var ja, jb bytes.Buffer
	if err := a.WriteJSONL(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("same workload produced different JSONL bytes")
	}
	lines := strings.Split(strings.TrimRight(ja.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL has %d lines, want 4", len(lines))
	}
	// site-a sorts before site-b; within site-b, the first fetch attempt
	// (start 2.0s, name before crawl.visit) precedes the visit span, and
	// the second attempt (start 2.5s) comes last.
	if !strings.Contains(lines[0], "analyze.build") {
		t.Fatalf("first line is not site-a's build span: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"crawl.fetch","start_us":2000000`) ||
		!strings.Contains(lines[3], `"crawl.fetch","start_us":2500000`) {
		t.Fatalf("fetch attempts out of order:\n%s\n%s", lines[1], lines[3])
	}
}

// TestChromeTraceShape validates the trace-event JSON: metadata names the
// processes/lanes, X events carry durations and IDs, instant events keep
// their scope.
func TestChromeTraceShape(t *testing.T) {
	tc := New(Options{Seed: 5})
	populate(tc)
	var buf bytes.Buffer
	if err := tc.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   int64             `json:"ts"`
			Dur  *int64            `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			S    string            `json:"s"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	var meta, complete, instant int
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Args["name"] == "" {
				t.Fatalf("metadata event without name args: %+v", e)
			}
		case "X":
			complete++
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("X event %q without non-negative dur", e.Name)
			}
			if e.Args["trace_id"] == "" || e.Args["span_id"] == "" {
				t.Fatalf("X event %q missing ids: %v", e.Name, e.Args)
			}
			if e.Pid < 1 || e.Tid < 1 {
				t.Fatalf("X event %q has pid/tid %d/%d", e.Name, e.Pid, e.Tid)
			}
		case "i":
			instant++
			if e.S != "t" {
				t.Fatalf("instant event scope = %q", e.S)
			}
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
	}
	if complete != 4 || instant != 1 || meta == 0 {
		t.Fatalf("events: %d meta, %d complete, %d instant", meta, complete, instant)
	}
	// An empty tracer still renders a JSON array, not null.
	var empty bytes.Buffer
	if err := New(Options{Seed: 1}).WriteChromeTrace(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), `"traceEvents":[]`) {
		t.Fatalf("empty tracer rendered %s", empty.String())
	}
}

// TestStageBreakdown aggregates spans by (stage, lane) with profile
// attrs winning the lane.
func TestStageBreakdown(t *testing.T) {
	tc := New(Options{Seed: 5})
	populate(tc)
	stats := tc.StageBreakdown()
	if len(stats) != 3 {
		t.Fatalf("breakdown rows = %d, want 3: %+v", len(stats), stats)
	}
	if stats[0].Stage != "analyze.build" || stats[0].Lane != "analyze" {
		t.Fatalf("first row = %+v", stats[0])
	}
	var fetch *StageStat
	for i := range stats {
		if stats[i].Stage == "crawl.fetch" {
			fetch = &stats[i]
		}
	}
	if fetch == nil || fetch.Lane != "Sim1" || fetch.Count != 2 {
		t.Fatalf("crawl.fetch row = %+v", fetch)
	}
	if fetch.TotalUS != 500_000 || fetch.MaxUS != 400_000 || fetch.MeanUS() != 250_000 {
		t.Fatalf("crawl.fetch durations = %+v", fetch)
	}
}

// TestSpanEndMetrics: ending spans publishes per-stage counters and
// histograms into the registry.
func TestSpanEndMetrics(t *testing.T) {
	reg := metrics.New()
	tc := New(Options{Seed: 5, Metrics: reg})
	populate(tc)
	if got := reg.Counter(metrics.Labeled("trace.spans.total", "stage", "crawl.fetch")).Value(); got != 2 {
		t.Fatalf("fetch span counter = %d, want 2", got)
	}
	// Double End must not double-count.
	tr := tc.Trace("page", "site-b|https://b/y")
	s := tr.Span(nil, "crawl.visit", "again", 0)
	s.End(10)
	s.End(20)
	if s.EndUS != 10 {
		t.Fatalf("second End moved EndUS to %d", s.EndUS)
	}
	if got := reg.Counter(metrics.Labeled("trace.spans.total", "stage", "crawl.visit")).Value(); got != 2 {
		t.Fatalf("visit span counter = %d, want 2 (one populate + one here)", got)
	}
	// End clamps to the start when given an earlier timestamp.
	c := tr.Span(nil, "crawl.backoff", "clamp", 100)
	c.End(40)
	if c.DurUS() != 0 {
		t.Fatalf("clamped span duration = %d", c.DurUS())
	}
}

// TestContextPropagation: the tracer rides the context.
func TestContextPropagation(t *testing.T) {
	tc := New(Options{Seed: 9})
	ctx := NewContext(context.Background(), tc)
	if TracerFrom(ctx) != tc {
		t.Fatal("tracer lost in context")
	}
	if TracerFrom(nil) != nil || TracerFrom(context.Background()) != nil {
		t.Fatal("lookups without a tracer must return nil")
	}
}

// TestLogHandler: records carry their attributes and no timestamp, the
// JSON format parses, and ParseLevel maps flag spellings.
func TestLogHandler(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "debug", false)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("visiting", "profile", "Old")
	line := buf.String()
	for _, want := range []string{"msg=visiting", "profile=Old"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
	if strings.Contains(line, "time=") {
		t.Errorf("log line carries a timestamp (breaks diffability): %s", line)
	}

	// JSON format parses and keeps the attributes.
	buf.Reset()
	jl, err := NewLogger(&buf, "info", true)
	if err != nil {
		t.Fatal(err)
	}
	jl.Info("visiting", "profile", "Old")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("JSON log record does not parse: %v", err)
	}
	if rec["msg"] != "visiting" || rec["profile"] != "Old" {
		t.Fatalf("JSON record = %v", rec)
	}
	if _, ok := rec["time"]; ok {
		t.Fatalf("JSON record carries a timestamp: %v", rec)
	}

	if _, err := NewLogger(&buf, "loud", false); err == nil {
		t.Fatal("unknown level must error")
	}
	for in, want := range map[string]string{"": "INFO", "warning": "WARN", "Error": "ERROR", "debug": "DEBUG"} {
		lvl, err := ParseLevel(in)
		if err != nil || lvl.String() != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, lvl, err)
		}
	}

	// The discard logger drops everything silently.
	DiscardLogger().Info("dropped")
}
