package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function. Spans of one op share Op. A span either timed the op
// itself (from the client side, the job-status timestamps, or the Runner
// hook) or a replay of one of the op's layer calls made after the timed
// phase (Replay).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0 = root
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the workload began
	End    float64 `json:"end_ms"`
	Replay bool    `json:"replay,omitempty"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps a run's spans in memory until the run ends. It is used
// from one goroutine at a time.
type tracer struct {
	origin time.Time
	spans  []span
	replay bool // spans recorded now are replays
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) at(tm time.Time) float64 {
	return float64(tm.Sub(t.origin)) / float64(time.Millisecond)
}

// record adds a span whose interval is already known.
func (t *tracer) record(op, parent int, name string, start, end time.Time) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: t.at(start), End: t.at(end), Replay: t.replay,
	})
	return len(t.spans)
}

// begin opens a span now; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Now()
	return t.record(op, parent, name, now, now)
}

func (t *tracer) end(id int) { t.spans[id-1].End = t.at(time.Now()) }

// call times fn as one span.
func (t *tracer) call(op, parent int, name string, fn func() error) error {
	id := t.begin(op, parent, name)
	err := fn()
	t.end(id)
	return err
}

// selfMS sums each span name's self time over the spans keep accepts. A
// span's self time is its duration minus its children's durations. A
// replayed child runs after its parent rather than inside it (the parent
// is one opaque call), so durations are subtracted, not the overlap;
// rounding can push a self time slightly below zero, which counts as zero.
func (t *tracer) selfMS(keep func(span) bool) map[string]float64 {
	children := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] += s.ms()
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if !keep(s) {
			continue
		}
		if self := s.ms() - children[s.ID]; self > 0 {
			out[s.Name] += self
		} else {
			out[s.Name] += 0
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
