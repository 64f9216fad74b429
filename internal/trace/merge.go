package trace

// This file is the tracer's wire codec for the distributed shard-and-merge
// pipeline. The JSONL and Chrome exports are lossy views (they drop the
// trace name and the span disambiguation key, both of which feed the
// canonical sort), so shard workers export full-fidelity TraceData records
// instead, and the coordinator imports them into one tracer. Traces are
// page-granular and a shard plan partitions pages, so shard tracers are
// disjoint; import + canonical export sorting make the merged JSONL and
// Chrome renderings byte-identical to a single-process run.

import "fmt"

// SpanData is the wire form of one span, carrying every field the
// canonical exports read — including the sibling-disambiguation key the
// JSONL rendering omits.
type SpanData struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Key     string  `json:"key,omitempty"`
	StartUS int64   `json:"start_us"`
	EndUS   int64   `json:"end_us"`
	Ended   bool    `json:"ended,omitempty"`
	Attrs   []Attr  `json:"attrs,omitempty"`
	Events  []Event `json:"events,omitempty"`
}

// TraceData is the wire form of one trace with its spans in canonical
// order.
type TraceData struct {
	ID    uint64     `json:"id"`
	Name  string     `json:"name"`
	Key   string     `json:"key"`
	Spans []SpanData `json:"spans,omitempty"`
}

// Export snapshots the tracer as wire records: traces in (Name, Key)
// order, spans in the canonical export order.
func (t *Tracer) Export() []TraceData {
	if t == nil {
		return nil
	}
	traces := t.Traces()
	out := make([]TraceData, 0, len(traces))
	for _, tr := range traces {
		td := TraceData{ID: uint64(tr.ID), Name: tr.Name, Key: tr.Key}
		for _, s := range tr.sortedSpans() {
			td.Spans = append(td.Spans, SpanData{
				ID:      uint64(s.ID),
				Parent:  uint64(s.Parent),
				Name:    s.Name,
				Key:     s.key,
				StartUS: s.StartUS,
				EndUS:   s.EndUS,
				Ended:   s.ended,
				Attrs:   s.Attrs,
				Events:  s.Events,
			})
		}
		out = append(out, td)
	}
	return out
}

// Import adds exported traces to the tracer, preserving the recorded IDs
// verbatim (no re-derivation, so the import is faithful regardless of the
// receiving tracer's seed). Spans of a trace already present are appended
// to it — the sorted exports re-canonicalize the order — but two traces
// claiming the same (name, key) with different IDs are an error: that is
// two different experiments' data.
func (t *Tracer) Import(data []TraceData) error {
	if t == nil || len(data) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, td := range data {
		mapKey := td.Name + "\x00" + td.Key
		tr := t.byKey[mapKey]
		if tr == nil {
			tr = &Trace{tracer: t, ID: TraceID(td.ID), Name: td.Name, Key: td.Key}
			t.byKey[mapKey] = tr
		} else if uint64(tr.ID) != td.ID {
			return fmt.Errorf("trace: import of %q/%q: trace ID %016x conflicts with recorded %s", td.Name, td.Key, td.ID, tr.ID)
		}
		for _, sd := range td.Spans {
			tr.spans = append(tr.spans, &Span{
				trace:   tr,
				ID:      SpanID(sd.ID),
				Parent:  SpanID(sd.Parent),
				Name:    sd.Name,
				key:     sd.Key,
				StartUS: sd.StartUS,
				EndUS:   sd.EndUS,
				ended:   sd.Ended,
				Attrs:   sd.Attrs,
				Events:  sd.Events,
			})
		}
	}
	return nil
}
