// Package metrics instruments the long-running halves of the system — the
// crawl and the analysis pipeline — with concurrency-safe progress
// counters and timing histograms, the observability layer a multi-day
// measurement needs (the paper's commander UI monitors its clients the
// same way, Appendix C).
//
// The design goals are the ones a hot path dictates: counters are single
// atomic adds, histograms are lock-free log-bucketed arrays (no sample
// retention, ~15% relative quantile error, O(1) memory regardless of how
// many of the ~387k pages stream through), and Snapshot() can be called
// from any goroutine while work is in flight to render a progress line.
//
// All types tolerate nil receivers: a nil *Registry hands out nil
// *Counter/*Histogram whose methods are no-ops, so instrumented code
// never branches on "is monitoring enabled".
//
// Metric names used by the pipeline:
//
//	crawl.sites            sites completed
//	crawl.pages            pages discovered
//	crawl.visits           visits performed (incl. reused)
//	crawl.visits.failed    failed visits
//	crawl.visits.reused    visits reused from a resume checkpoint
//	crawl.visit_ms         simulated page-load duration histogram
//	crawl.site_ms          wall-clock per completed site batch
//	analysis.pages         page groups examined
//	analysis.pages.vetted  pages passing the vetting rule
//	analysis.pages.excluded.<reason>
//	                       pages the vetting rule dropped, by reason
//	                       (missing, failed, degraded, build)
//	analysis.trees         trees built; only pages with enough eligible
//	                       profiles build, so this is the vetted pages'
//	                       trees plus those of pages a malformed visit
//	                       dropped
//	analysis.trees.failed  malformed visits skipped by the tree builder
//	analysis.page_ms       wall-clock per page (build + cross-compare)
//
// Labeled series (see Labeled; the Prometheus encoder renders the suffix
// as {k="v"} labels on one family):
//
//	crawl.visit_ms|profile=<p>      per-profile simulated visit duration
//	crawl.retries.total|kind=<k>    retries by triggering fault kind
//	faults.injected.total|kind=<k>  injected faults by kind
//	trace.spans.total|stage=<s>     spans recorded per stage (tracing on)
//	trace.span_us|stage=<s>         simulated span duration per stage
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labeled builds the internal name of a labeled metric: the base name
// plus a "|k=v[,k2=v2...]" suffix. The registry treats the whole string
// as an opaque name (each label combination is its own series); the
// Prometheus encoder splits the suffix back out and renders it as
// {k="v",...} labels on a shared family. kv alternates key, value; a
// trailing odd element is ignored.
func Labeled(base string, kv ...string) string {
	if len(kv) < 2 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('|')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	return b.String()
}

// splitLabels separates an internal metric name into its base name and
// the raw label suffix ("" when unlabeled).
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '|'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores writes and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable level — a value that goes up and down, like the
// artifact bytes finished jobs hold, as opposed to a Counter's monotone
// total. The zero value is ready to use; a nil Gauge ignores
// writes and reads as zero.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: geometric buckets growing by histGrowth per
// step starting at histMin. 320 buckets at 15% growth cover histMin up to
// ~histMin·1.15^318 ≈ 2e16, far beyond any duration in milliseconds.
const (
	histBuckets = 320
	histGrowth  = 1.15
	histMin     = 0.001
)

// logGrowth is precomputed for bucket index math.
var logGrowth = math.Log(histGrowth)

// Histogram is a lock-free log-bucketed histogram for non-negative
// samples (typically durations in milliseconds). Quantiles are estimated
// from the bucket boundaries with at most one bucket (~15%) of relative
// error. The zero value is ready to use; a nil Histogram ignores writes.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	maxBits atomic.Uint64 // float64 bits of the running max
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps a sample to its bucket.
func bucketIndex(v float64) int {
	if v <= histMin {
		return 0
	}
	idx := int(math.Log(v/histMin)/logGrowth) + 1
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketUpper returns a bucket's inclusive upper bound, the "le" value a
// Prometheus exposition reports for it.
func bucketUpper(i int) float64 {
	return histMin * math.Pow(histGrowth, float64(i))
}

// bucketValue returns the representative value of a bucket (its geometric
// midpoint), the value quantile estimates report.
func bucketValue(i int) float64 {
	if i <= 0 {
		return histMin
	}
	return histMin * math.Pow(histGrowth, float64(i)-0.5)
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Time starts a wall-clock timer; the returned func records the elapsed
// time in milliseconds. Usage: defer h.Time()().
func (h *Histogram) Time() func() {
	if h == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// BucketCount is one non-empty histogram bucket in a Stats capture: the
// cumulative number of samples ≤ Le (Prometheus "le" semantics).
type BucketCount struct {
	Le    float64
	Count int64
}

// Stats summarizes a histogram at one point in time.
type Stats struct {
	Count         int64
	Sum           float64
	Mean          float64
	P50, P95, P99 float64
	Max           float64
	// Buckets holds the cumulative counts of the non-empty buckets in
	// ascending Le order (the sparse view a Prometheus exposition needs;
	// empty buckets carry no information and are omitted).
	Buckets []BucketCount
}

// Stats computes the histogram's summary. Safe to call while Observe is
// running in other goroutines; the result is a consistent-enough snapshot
// for progress reporting.
func (h *Histogram) Stats() Stats {
	if h == nil {
		return Stats{}
	}
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	st := Stats{Count: total, Max: math.Float64frombits(h.maxBits.Load())}
	if total == 0 {
		return st
	}
	st.Sum = math.Float64frombits(h.sumBits.Load())
	st.Mean = st.Sum / float64(h.count.Load())
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		st.Buckets = append(st.Buckets, BucketCount{Le: bucketUpper(i), Count: cum})
	}
	// Bucket representatives are geometric midpoints and can overshoot
	// the true maximum; a quantile is never allowed to exceed it.
	clamp := func(v float64) float64 {
		if st.Max > 0 && v > st.Max {
			return st.Max
		}
		return v
	}
	st.P50 = clamp(quantileFrom(counts[:], total, 0.50))
	st.P95 = clamp(quantileFrom(counts[:], total, 0.95))
	st.P99 = clamp(quantileFrom(counts[:], total, 0.99))
	return st
}

// quantileFrom walks the cumulative bucket counts to the bucket holding
// the q-th sample and returns its representative value.
func quantileFrom(counts []int64, total int64, q float64) float64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return bucketValue(i)
		}
	}
	return bucketValue(len(counts) - 1)
}

// Registry is a named collection of counters and histograms. The zero
// value is not usable; create with New. A nil Registry hands out nil
// instruments, so callers can thread an optional registry without checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	fgauges  map[string]*FloatGauge
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		fgauges:  make(map[string]*FloatGauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterStat is one counter's value in a snapshot.
type CounterStat struct {
	Name  string
	Value int64
}

// GaugeStat is one gauge's level in a snapshot.
type GaugeStat struct {
	Name  string
	Value int64
}

// HistogramStat is one histogram's summary in a snapshot.
type HistogramStat struct {
	Name string
	Stats
}

// Snapshot is a point-in-time view of every instrument, sorted by name
// for deterministic rendering.
type Snapshot struct {
	Counters    []CounterStat
	Gauges      []GaugeStat
	FloatGauges []FloatGaugeStat
	Histograms  []HistogramStat
}

// Snapshot captures every instrument. Safe to call concurrently with
// metric updates.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	fgauges := make(map[string]*FloatGauge, len(r.fgauges))
	for name, g := range r.fgauges {
		fgauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()

	var s Snapshot
	for name, c := range counters {
		s.Counters = append(s.Counters, CounterStat{Name: name, Value: c.Value()})
	}
	for name, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeStat{Name: name, Value: g.Value()})
	}
	for name, g := range fgauges {
		s.FloatGauges = append(s.FloatGauges, FloatGaugeStat{Name: name, Value: g.Value()})
	}
	for name, h := range hists {
		s.Histograms = append(s.Histograms, HistogramStat{Name: name, Stats: h.Stats()})
	}
	sort.Slice(s.Counters, func(a, b int) bool { return s.Counters[a].Name < s.Counters[b].Name })
	sort.Slice(s.Gauges, func(a, b int) bool { return s.Gauges[a].Name < s.Gauges[b].Name })
	sort.Slice(s.FloatGauges, func(a, b int) bool { return s.FloatGauges[a].Name < s.FloatGauges[b].Name })
	sort.Slice(s.Histograms, func(a, b int) bool { return s.Histograms[a].Name < s.Histograms[b].Name })
	return s
}

// String renders the snapshot as one progress line:
//
//	crawl.sites=12 crawl.visits=480 | crawl.visit_ms n=480 mean=91.2 p50=80.1 p95=210.4 p99=390.8 max=412.0
func (s Snapshot) String() string {
	var b strings.Builder
	for i, c := range s.Counters {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", c.Name, c.Value)
	}
	for i, g := range s.Gauges {
		if i > 0 || len(s.Counters) > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", g.Name, g.Value)
	}
	for i, g := range s.FloatGauges {
		if i > 0 || len(s.Counters)+len(s.Gauges) > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.4g", g.Name, g.Value)
	}
	for i, h := range s.Histograms {
		if i == 0 && len(s.Counters)+len(s.Gauges)+len(s.FloatGauges) > 0 {
			b.WriteString(" | ")
		} else if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
			h.Name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
	}
	return b.String()
}
