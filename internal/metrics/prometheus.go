// Prometheus text exposition (version 0.0.4) for a metrics Snapshot — the
// format every Prometheus-compatible scraper (Prometheus itself, Grafana
// Agent, VictoriaMetrics) ingests from a /metrics endpoint. The encoder
// renders only what the snapshot holds, so it is deterministic: same
// snapshot, same bytes.
//
// Labeled series (internal names carrying a "|k=v,..." suffix, see
// Labeled) are grouped under one family: a single HELP + TYPE header and
// one sample line per label combination, the way a scraper expects
// `faults_injected_total{kind="latency"}` to join its siblings.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promName maps an internal dotted metric name ("crawl.visit_ms") to a
// valid Prometheus metric name ("crawl_visit_ms"): every character
// outside [a-zA-Z0-9_:] becomes '_', and a leading digit is prefixed.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float the way Prometheus parses it (shortest exact
// representation; integral values without an exponent).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabelsInner renders a raw "k=v,k2=v2" label suffix as
// `k="v",k2="v2"` (no braces), sanitizing label names and quoting values.
// Returns "" for an empty suffix.
func promLabelsInner(raw string) string {
	if raw == "" {
		return ""
	}
	var b strings.Builder
	for i, part := range strings.Split(raw, ",") {
		k, v, _ := strings.Cut(part, "=")
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(k))
		b.WriteByte('=')
		b.WriteString(strconv.Quote(v))
	}
	return b.String()
}

// promSeries renders "family{labels}" — just "family" when unlabeled.
func promSeries(family, inner string) string {
	if inner == "" {
		return family
	}
	return family + "{" + inner + "}"
}

// withLe appends the le (or q) label to an inner label set.
func withLe(inner, key, value string) string {
	lab := key + "=" + strconv.Quote(value)
	if inner == "" {
		return lab
	}
	return inner + "," + lab
}

// helpText documents the metric families the pipeline registers; families
// not listed fall back to a generic line so HELP is never missing.
var helpText = map[string]string{
	"crawl.sites":                    "Sites completed by the crawl.",
	"crawl.pages":                    "Pages discovered by the crawl.",
	"crawl.visits":                   "Visits performed, including resume-reused ones.",
	"crawl.visits.failed":            "Visits that ended in failure.",
	"crawl.visits.reused":            "Visits reused from a resume checkpoint.",
	"crawl.visit_ms":                 "Simulated page-load duration in milliseconds.",
	"crawl.site_ms":                  "Wall-clock milliseconds per completed site batch.",
	"crawl.retries.total":            "Visit retries by the fault kind that triggered them.",
	"faults.injected.total":          "Faults injected by the deterministic injector, by kind.",
	"analysis.pages":                 "Page groups examined by the analysis.",
	"analysis.pages.vetted":          "Pages passing the vetting rule.",
	"analysis.trees":                 "Trees built.",
	"analysis.trees.failed":          "Malformed visits skipped by the tree builder.",
	"analysis.page_ms":               "Wall-clock milliseconds per analyzed page.",
	"trace.spans.total":              "Trace spans recorded per pipeline stage.",
	"trace.span_us":                  "Simulated span duration in microseconds per stage.",
	"service.jobs.submitted":         "Jobs submitted, including cache hits and queue-full rejections.",
	"service.jobs.completed":         "Jobs whose run finished without error.",
	"service.jobs.failed":            "Jobs whose run returned an error.",
	"service.jobs.canceled":          "Jobs canceled while queued or running, or abandoned at shutdown.",
	"service.jobs.rejected":          "Submissions refused because the queue was full.",
	"service.cache.hits":             "Jobs served from the result cache.",
	"service.cache.misses":           "Dequeued jobs that missed the result cache and ran.",
	"service.job_ms":                 "Wall-clock milliseconds per job run.",
	"service.queue_wait_ms":          "Wall-clock milliseconds a job waited in the queue.",
	"service.shard.remote":           "Shard slices produced by a remote shard worker.",
	"service.shard.dispatch_retries": "Shard dispatches retried on the next worker.",
	"service.shard.local_fallbacks":  "Shard slices run in-process after every remote dispatch failed.",
	"service.results.bytes":          "Artifact bytes held by jobs that finished by running.",
	"go.goroutines":                  "Number of live goroutines, sampled at scrape time.",
	"go.heap_inuse_bytes":            "Bytes of heap memory in use, sampled at scrape time.",
	"go.gc_pause_p95_ms":             "p95 of recent GC stop-the-world pauses in milliseconds.",
	"process.uptime_seconds":         "Seconds since the process started.",
	"monitor.epochs.total":           "Measurement epochs completed by monitor mode.",
	"monitor.current_epoch":          "Epoch monitor mode is measuring, -1 when idle.",
	"drift.alerts.total":             "Drift alerts emitted across all epochs.",
	"drift.alerts.firing":            "Alert rules currently in a firing state.",
	"drift.tracking_share":           "Tracking share of the latest monitored epoch.",
	"drift.tracking_share_drift":     "Tracking-share change vs the previous epoch.",
	"drift.third_party_jaccard":      "Jaccard similarity of global third-party sets vs the previous epoch.",
	"drift.tree_similarity":          "Mean cross-epoch tree similarity over common pages.",
	"drift.new_third_parties":        "Third-party domains new in the latest epoch.",
	"drift.vanished_third_parties":   "Third-party domains gone in the latest epoch.",
}

// helpFor returns the HELP text of a family's internal base name.
func helpFor(base string) string {
	if h := helpText[base]; h != "" {
		return h
	}
	return "webmeasure metric " + base + "."
}

// familyHeader writes the one HELP + TYPE header of a family.
func familyHeader(w io.Writer, family, base, kind string) error {
	help := strings.NewReplacer("\\", "\\\\", "\n", "\\n").Replace(helpFor(base))
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", family, help, family, kind)
	return err
}

// series is one instrument resolved to its family coordinates.
type series struct {
	base   string // internal base name ("faults.injected.total")
	family string // sanitized family name
	inner  string // rendered inner label set ("" when unlabeled)
	idx    int    // index into the snapshot slice it came from
}

// resolveSeries maps internal names to (family, labels) and orders them
// by family then label set, so every family's series are adjacent and a
// single header precedes them — the grouping the exposition format
// requires (duplicate TYPE lines are a lint error).
func resolveSeries(names []string) []series {
	out := make([]series, len(names))
	for i, name := range names {
		base, labels := splitLabels(name)
		out[i] = series{base: base, family: promName(base), inner: promLabelsInner(labels), idx: i}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].family != out[b].family {
			return out[a].family < out[b].family
		}
		return out[a].inner < out[b].inner
	})
	return out
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format. Counters become counter families, gauges gauge families; each histogram becomes a
// histogram family (cumulative le-buckets over the non-empty log buckets,
// plus _sum and _count) and a companion <name>_quantile gauge family
// carrying the estimated p50/p95/p99 and the exact max, so dashboards get
// both aggregatable buckets and ready-made latency quantiles. Every
// family carries HELP + TYPE exactly once; labeled series share their
// family's header. Output is sorted and byte-deterministic for a given
// snapshot.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, len(s.Counters))
	for i, c := range s.Counters {
		names[i] = c.Name
	}
	lastFamily := ""
	for _, se := range resolveSeries(names) {
		if se.family != lastFamily {
			if err := familyHeader(w, se.family, se.base, "counter"); err != nil {
				return err
			}
			lastFamily = se.family
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(se.family, se.inner), s.Counters[se.idx].Value); err != nil {
			return err
		}
	}

	names = make([]string, len(s.Gauges))
	for i, g := range s.Gauges {
		names[i] = g.Name
	}
	lastFamily = ""
	for _, se := range resolveSeries(names) {
		if se.family != lastFamily {
			if err := familyHeader(w, se.family, se.base, "gauge"); err != nil {
				return err
			}
			lastFamily = se.family
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(se.family, se.inner), s.Gauges[se.idx].Value); err != nil {
			return err
		}
	}

	// Float gauges render as their own gauge families after the integer
	// ones. Families never collide: a name is either an int or a float
	// gauge in a given registry, never both.
	names = make([]string, len(s.FloatGauges))
	for i, g := range s.FloatGauges {
		names[i] = g.Name
	}
	lastFamily = ""
	for _, se := range resolveSeries(names) {
		if se.family != lastFamily {
			if err := familyHeader(w, se.family, se.base, "gauge"); err != nil {
				return err
			}
			lastFamily = se.family
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", promSeries(se.family, se.inner), promFloat(s.FloatGauges[se.idx].Value)); err != nil {
			return err
		}
	}

	names = make([]string, len(s.Histograms))
	for i, h := range s.Histograms {
		names[i] = h.Name
	}
	ordered := resolveSeries(names)
	lastFamily = ""
	for _, se := range ordered {
		h := s.Histograms[se.idx]
		if se.family != lastFamily {
			if err := familyHeader(w, se.family, se.base, "histogram"); err != nil {
				return err
			}
			lastFamily = se.family
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", se.family, withLe(se.inner, "le", promFloat(b.Le)), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n%s %s\n%s %d\n",
			se.family, withLe(se.inner, "le", "+Inf"), h.Count,
			promSeries(se.family+"_sum", se.inner), promFloat(h.Sum),
			promSeries(se.family+"_count", se.inner), h.Count); err != nil {
			return err
		}
	}
	// Companion quantile gauges, one family per histogram family, emitted
	// after the histogram block so families never interleave.
	lastFamily = ""
	for _, se := range ordered {
		h := s.Histograms[se.idx]
		if h.Count == 0 {
			continue
		}
		qFamily := se.family + "_quantile"
		if qFamily != lastFamily {
			help := strings.NewReplacer("\\", "\\\\", "\n", "\\n").Replace("Estimated quantiles of " + se.base + ".")
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", qFamily, help, qFamily); err != nil {
				return err
			}
			lastFamily = qFamily
		}
		for _, q := range []struct {
			label string
			value float64
		}{
			{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}, {"max", h.Max},
		} {
			if _, err := fmt.Fprintf(w, "%s{%s} %s\n", qFamily, withLe(se.inner, "q", q.label), promFloat(q.value)); err != nil {
				return err
			}
		}
	}
	return nil
}
