// Package trace is the span-tracing layer of the pipeline: one trace per
// page visit, one span per stage the page passes through — fetch attempts,
// retry backoffs, tree build, vetting, and the treediff comparison stages.
// It exists because the paper's five semi-parallel profile crawls make it
// hard to tell *where* divergence and latency come from, and multi-vantage
// work ("The Blind Men and the Internet") shows that uninstrumented setup
// differences silently bias results.
//
// Unlike wall-clock tracers, everything here is deterministic: trace and
// span IDs are seeded hashes of stable names (no global counters whose
// order depends on scheduling), and timestamps are simulated microseconds
// supplied by the instrumentation sites — the crawler's simulated render
// and backoff times, the analysis' work-proportional cost model. The same
// seed therefore produces byte-identical exports (JSONL and Chrome
// trace-event JSON) for every worker count, which is what lets the trace
// artifact sit inside the determinism golden suite.
//
// Sampling is head-based: the keep/drop decision is a pure function of
// (seed, trace key), so a 1-in-N sample selects the same pages on every
// run and on every concurrently-tracing worker.
//
// All types tolerate nil receivers: a nil *Tracer hands out nil *Trace,
// which hands out nil *Span, whose methods are no-ops — instrumented code
// never branches on "is tracing enabled".
package trace

import (
	"fmt"
	"hash/fnv"
	"sync"

	"webmeasure/internal/metrics"
)

// TraceID identifies one page's journey through the pipeline.
type TraceID uint64

// SpanID identifies one operation within a trace.
type SpanID uint64

// String renders the ID as 16 hex digits (the OpenTelemetry convention,
// halved to 64 bits).
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the ID as 16 hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string
	Value string
}

// Event is a point-in-time annotation within a span (e.g. a retry
// decision), at a simulated timestamp.
type Event struct {
	Name  string
	AtUS  int64
	Attrs []Attr
}

// hash64 mixes the parts with FNV-1a — the same derivation scheme webgen
// uses, duplicated here so the trace layer stays dependency-free.
func hash64(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// mix folds two 64-bit values with the SplitMix64 finalizer for avalanche.
func mix(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Options parameterizes New.
type Options struct {
	// Seed pins the trace/span ID derivation and the sampling decision;
	// use the crawl's master seed so traces line up with the dataset.
	Seed int64
	// SampleEvery keeps one of every N traces, decided per trace key
	// (head-based sampling). 0 or 1 keeps every trace.
	SampleEvery int
	// Metrics, if non-nil, receives per-stage span counters and simulated
	// latency histograms (trace.spans.total{stage=...},
	// trace.span_us{stage=...}) as spans end — the Prometheus face of the
	// stage breakdown.
	Metrics *metrics.Registry
}

// Tracer collects the traces of one pipeline run. Create with New; a nil
// Tracer is permanently disabled and hands out nil traces.
type Tracer struct {
	seed        uint64
	sampleEvery int
	reg         *metrics.Registry

	mu    sync.Mutex
	byKey map[string]*Trace
}

// New creates a tracer.
func New(opts Options) *Tracer {
	sample := opts.SampleEvery
	if sample < 1 {
		sample = 1
	}
	return &Tracer{
		seed:        uint64(opts.Seed),
		sampleEvery: sample,
		reg:         opts.Metrics,
		byKey:       make(map[string]*Trace),
	}
}

// Enabled reports whether the tracer records anything at all.
func (t *Tracer) Enabled() bool { return t != nil }

// SampleEvery returns the head-sampling rate (1 = every trace).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return t.sampleEvery
}

// sampled is the head-based keep/drop decision: a pure function of
// (seed, name, key), identical on every worker and every run.
func (t *Tracer) sampled(name, key string) bool {
	if t.sampleEvery <= 1 {
		return true
	}
	return mix(t.seed, hash64("trace.sample", name, key))%uint64(t.sampleEvery) == 0
}

// Trace returns the trace for (name, key), creating it on first use —
// the crawl opens a page's trace and the analysis later re-opens the same
// one by key, so a page's whole journey lands in a single trace. Returns
// nil when the tracer is nil or the key is sampled out.
func (t *Tracer) Trace(name, key string) *Trace {
	if t == nil {
		return nil
	}
	if !t.sampled(name, key) {
		return nil
	}
	mapKey := name + "\x00" + key
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr := t.byKey[mapKey]; tr != nil {
		return tr
	}
	id := TraceID(mix(t.seed, hash64("trace", name, key)))
	if id == 0 {
		id = 1
	}
	tr := &Trace{tracer: t, ID: id, Name: name, Key: key}
	t.byKey[mapKey] = tr
	return tr
}

// Trace is one page's (or one job's) span collection. Spans may be added
// concurrently from multiple goroutines; each individual span must be
// mutated by its owning goroutine only.
type Trace struct {
	tracer *Tracer
	ID     TraceID
	Name   string
	Key    string

	mu    sync.Mutex
	spans []*Span
}

// Span starts a span on the trace. parent may be nil (a trace-root span).
// key disambiguates siblings that share a name — the profile of a visit
// span, the attempt number of a fetch span — so span IDs stay collision-
// free and deterministic without any global counter. startUS is the
// simulated start time in microseconds.
func (tr *Trace) Span(parent *Span, name, key string, startUS int64) *Span {
	if tr == nil {
		return nil
	}
	var parentID SpanID
	parentBits := uint64(tr.ID)
	if parent != nil {
		parentID = parent.ID
		parentBits = uint64(parent.ID)
	}
	id := SpanID(mix(uint64(tr.ID)^parentBits, hash64("span", name, key)))
	if id == 0 {
		id = 1
	}
	s := &Span{
		trace:   tr,
		ID:      id,
		Parent:  parentID,
		Name:    name,
		key:     key,
		StartUS: startUS,
		EndUS:   startUS,
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s
}

// SpanCount returns the number of spans recorded so far.
func (tr *Trace) SpanCount() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// Span is one operation in a trace. The zero SpanID parent marks a
// trace-root span. A nil Span ignores every method.
type Span struct {
	trace  *Trace
	ID     SpanID
	Parent SpanID
	Name   string
	key    string

	StartUS int64
	EndUS   int64
	Attrs   []Attr
	Events  []Event
	ended   bool
}

// Trace returns the owning trace (nil for a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// SetAttr annotates the span; returns the span for chaining.
func (s *Span) SetAttr(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	return s
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, value int) *Span {
	return s.SetAttr(key, fmt.Sprintf("%d", value))
}

// AddEvent records a point-in-time annotation at a simulated timestamp.
func (s *Span) AddEvent(name string, atUS int64, attrs ...Attr) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{Name: name, AtUS: atUS, Attrs: attrs})
}

// End closes the span at a simulated timestamp (clamped to its start) and
// publishes the per-stage metrics. A second End is a no-op.
func (s *Span) End(endUS int64) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if endUS < s.StartUS {
		endUS = s.StartUS
	}
	s.EndUS = endUS
	if s.trace != nil && s.trace.tracer != nil && s.trace.tracer.reg != nil {
		reg := s.trace.tracer.reg
		reg.Counter(metrics.Labeled("trace.spans.total", "stage", s.Name)).Inc()
		reg.Histogram(metrics.Labeled("trace.span_us", "stage", s.Name)).Observe(float64(endUS - s.StartUS))
	}
}

// DurUS returns the span's simulated duration in microseconds.
func (s *Span) DurUS() int64 {
	if s == nil {
		return 0
	}
	return s.EndUS - s.StartUS
}

// attr returns the value of a span attribute, "" when absent.
func (s *Span) attr(key string) string {
	if s == nil {
		return ""
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
