package tree

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// TestRecordRoundTrip: Record → Tree must reproduce every analysis-visible
// property of the original — node fields, children order, depths, parent
// chains, and the memoized views — and a second flattening must yield a
// deeply equal Record (the fixed point the wire protocol relies on).
func TestRecordRoundTrip(t *testing.T) {
	orig := build(t)
	rec := orig.Record()
	back, err := rec.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if back.Site != orig.Site || back.PageURL != orig.PageURL || back.Profile != orig.Profile {
		t.Errorf("identity differs: %s/%s/%s", back.Site, back.PageURL, back.Profile)
	}
	if back.StrippedURLs != orig.StrippedURLs || back.TotalRequests != orig.TotalRequests {
		t.Errorf("counters differ: stripped %d/%d, total %d/%d",
			back.StrippedURLs, orig.StrippedURLs, back.TotalRequests, orig.TotalRequests)
	}
	if back.NodeCount() != orig.NodeCount() {
		t.Fatalf("node count %d, want %d", back.NodeCount(), orig.NodeCount())
	}
	if back.MaxDepth() != orig.MaxDepth() {
		t.Errorf("max depth %d, want %d", back.MaxDepth(), orig.MaxDepth())
	}
	for _, n := range orig.Nodes() {
		m := back.Node(n.Key)
		if m == nil {
			t.Fatalf("node %q missing after round trip", n.Key)
		}
		if m.Depth != n.Depth || !slices.Equal(chainOf(m), chainOf(n)) {
			t.Errorf("node %q: depth %d/%d chain %q/%q", n.Key, m.Depth, n.Depth, chainOf(m), chainOf(n))
		}
		if m.Type != n.Type || m.Party != n.Party || m.Tracking != n.Tracking ||
			m.RawURL != n.RawURL || m.Status != n.Status ||
			m.ContentType != n.ContentType || m.BodySize != n.BodySize {
			t.Errorf("node %q: fields differ after round trip", n.Key)
		}
		if len(m.Children) != len(n.Children) {
			t.Fatalf("node %q: %d children, want %d", n.Key, len(m.Children), len(n.Children))
		}
		for i := range n.Children {
			if m.Children[i].Key != n.Children[i].Key {
				t.Errorf("node %q: child %d is %q, want %q (order lost)",
					n.Key, i, m.Children[i].Key, n.Children[i].Key)
			}
		}
	}
	if again := back.Record(); !reflect.DeepEqual(again, rec) {
		t.Error("second flattening differs from the first — Record is not a fixed point")
	}
}

// TestRecordJSONRoundTrip: the wire actually ships JSON; parse errors or
// field drift would surface here.
func TestRecordJSONRoundTrip(t *testing.T) {
	rec := build(t).Record()
	wire, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := json.Unmarshal(wire, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Error("record changed across JSON round trip")
	}
	if _, err := got.Tree(); err != nil {
		t.Errorf("rebuild after JSON: %v", err)
	}
}

// TestRecordTreeValidation: malformed wire records must be rejected.
func TestRecordTreeValidation(t *testing.T) {
	base := build(t).Record()
	for _, tc := range []struct {
		name   string
		mutate func(r *Record)
	}{
		{"empty", func(r *Record) { r.Nodes = nil }},
		{"rooted first node", func(r *Record) { r.Nodes[0].Parent = "nowhere" }},
		{"duplicate key", func(r *Record) { r.Nodes[2].Key = r.Nodes[1].Key }},
		{"unknown parent", func(r *Record) { r.Nodes[len(r.Nodes)-1].Parent = "ghost" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := base
			rec.Nodes = append([]NodeRecord(nil), base.Nodes...)
			tc.mutate(&rec)
			if _, err := rec.Tree(); err == nil {
				t.Error("malformed record accepted")
			}
		})
	}
}
