package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestGaugeBasics covers Set/Add/Value, the nil no-op contract, and
// registry identity (same name, same gauge).
func TestGaugeBasics(t *testing.T) {
	var nilG *Gauge
	nilG.Set(5)
	nilG.Add(3)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge must read zero")
	}

	r := New()
	g := r.Gauge("service.results.bytes")
	g.Set(4)
	g.Add(-1)
	g.Add(2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge value = %d, want 5", got)
	}
	if r.Gauge("service.results.bytes") != g {
		t.Fatal("registry handed out a different gauge for the same name")
	}
	var nilReg *Registry
	if nilReg.Gauge("x") != nil {
		t.Fatal("nil registry must hand out nil gauges")
	}
}

// TestGaugeConcurrent hammers a gauge from many goroutines; the deltas
// cancel, so the final level is the initial Set. Run under -race in tier2.
func TestGaugeConcurrent(t *testing.T) {
	g := New().Gauge("g")
	g.Set(100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 100 {
		t.Fatalf("gauge after balanced adds = %d, want 100", got)
	}
}

// TestGaugeSnapshotAndPrometheus checks that gauges land in snapshots
// (sorted, rendered in String) and are exposed as a TYPE gauge family.
func TestGaugeSnapshotAndPrometheus(t *testing.T) {
	r := New()
	r.Gauge("b.gauge").Set(2)
	r.Gauge("a.gauge").Set(7)
	r.Counter("c.count").Inc()

	s := r.Snapshot()
	if len(s.Gauges) != 2 || s.Gauges[0].Name != "a.gauge" || s.Gauges[1].Name != "b.gauge" {
		t.Fatalf("snapshot gauges = %+v", s.Gauges)
	}
	line := s.String()
	for _, want := range []string{"c.count=1", "a.gauge=7", "b.gauge=2"} {
		if !strings.Contains(line, want) {
			t.Errorf("String() missing %q: %s", want, line)
		}
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge",
		"a_gauge 7",
		"# TYPE b_gauge gauge",
		"b_gauge 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestGaugeDumpMerge: gauges ride the shard-merge wire format additively.
func TestGaugeDumpMerge(t *testing.T) {
	a, b := New(), New()
	a.Gauge("g").Set(3)
	b.Gauge("g").Set(4)
	dst := New()
	if err := dst.Merge(a.Dump()); err != nil {
		t.Fatal(err)
	}
	if err := dst.Merge(b.Dump()); err != nil {
		t.Fatal(err)
	}
	if got := dst.Gauge("g").Value(); got != 7 {
		t.Fatalf("merged gauge = %d, want 7", got)
	}
}
