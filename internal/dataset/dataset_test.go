package dataset

import (
	"bytes"
	"strings"
	"testing"

	"webmeasure/internal/measurement"
)

func visit(site, page, profile string, ok bool) *measurement.Visit {
	v := &measurement.Visit{Site: site, PageURL: page, Profile: profile, Success: ok}
	if ok {
		v.Requests = []measurement.Request{{URL: page, Type: measurement.TypeMainFrame}}
	} else {
		v.Failure = "injected"
	}
	return v
}

func TestAddAndGroup(t *testing.T) {
	d := New()
	d.Add(visit("a.example", "https://a.example/", "Sim1", true))
	d.Add(visit("a.example", "https://a.example/", "Sim2", true))
	d.Add(visit("a.example", "https://a.example/p1", "Sim1", true))
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	pages := d.Pages()
	if len(pages) != 2 {
		t.Fatalf("pages = %d", len(pages))
	}
	if pages[0].Key.PageURL != "https://a.example/" {
		t.Errorf("sort order wrong: %+v", pages[0].Key)
	}
	if len(pages[0].ByProfile) != 2 {
		t.Errorf("grouping wrong: %d profiles", len(pages[0].ByProfile))
	}
}

func TestProfilesSitesSuccessRate(t *testing.T) {
	d := New()
	d.Add(visit("a.example", "https://a.example/", "Sim1", true))
	d.Add(visit("b.example", "https://b.example/", "Sim1", false))
	d.Add(visit("b.example", "https://b.example/", "Old", true))
	if got := d.Profiles(); len(got) != 2 || got[0] != "Old" || got[1] != "Sim1" {
		t.Errorf("Profiles = %v", got)
	}
	if got := d.Sites(); len(got) != 2 || got[0] != "a.example" {
		t.Errorf("Sites = %v", got)
	}
	if r := d.SuccessRate("Sim1"); r != 0.5 {
		t.Errorf("SuccessRate(Sim1) = %v", r)
	}
	if r := d.SuccessRate("missing"); r != 0 {
		t.Errorf("SuccessRate(missing) = %v", r)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	d := New()
	v := visit("a.example", "https://a.example/", "Sim1", true)
	v.Requests = append(v.Requests, measurement.Request{
		URL:       "https://tr-metrics.example/track/event?sid=abc",
		Type:      measurement.TypeBeacon,
		FrameID:   1,
		FrameURL:  "https://ads.example/frame",
		CallStack: []measurement.StackFrame{{FuncName: "send", URL: "https://tr-metrics.example/js/analytics.js", Line: 10}},
	})
	v.Cookies = []measurement.CookieObservation{{Name: "uid", Domain: "tr-metrics.example", Path: "/", Secure: true, SameSite: "None"}}
	d.Add(v)
	d.Add(visit("b.example", "https://b.example/", "Old", false))

	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip Len = %d", got.Len())
	}
	rv := got.Pages()[0].ByProfile["Sim1"]
	if rv == nil || len(rv.Requests) != 2 || rv.Requests[1].CallStack[0].URL != "https://tr-metrics.example/js/analytics.js" {
		t.Errorf("round trip lost request detail: %+v", rv)
	}
	if len(rv.Cookies) != 1 || rv.Cookies[0].AttributeSignature() != "secure=true;httponly=false;samesite=None" {
		t.Errorf("round trip lost cookies: %+v", rv.Cookies)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Error("bad JSON should error")
	}
	d, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || d.Len() != 0 {
		t.Errorf("blank lines should be skipped: %v %d", err, d.Len())
	}
}

func TestConcurrentAdd(t *testing.T) {
	d := New()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				d.Add(visit("c.example", "https://c.example/", "P"+string(rune('0'+g)), true))
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if d.Len() != 800 {
		t.Errorf("Len = %d, want 800", d.Len())
	}
}

// flushCountingWriter records how often Flush is called, standing in for
// an http.ResponseWriter behind StreamJSONL.
type flushCountingWriter struct {
	bytes.Buffer
	flushes int
}

func (w *flushCountingWriter) Flush() { w.flushes++ }

func TestStreamJSONLFlushesAndMatchesWriteJSONL(t *testing.T) {
	d := New()
	for i := 0; i < 10; i++ {
		d.Add(visit("a.example", "https://a.example/"+strings.Repeat("p", i+1), "Sim1", true))
	}
	var plain bytes.Buffer
	if err := d.WriteJSONL(&plain); err != nil {
		t.Fatal(err)
	}
	w := &flushCountingWriter{}
	if err := d.StreamJSONL(w, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), w.Buffer.Bytes()) {
		t.Fatal("StreamJSONL bytes differ from WriteJSONL")
	}
	// 10 visits, flush every 3 → pushes after visits 3, 6, 9.
	if w.flushes != 3 {
		t.Fatalf("flushes = %d, want 3", w.flushes)
	}
	if got := len(strings.Split(strings.TrimRight(w.String(), "\n"), "\n")); got != 10 {
		t.Fatalf("lines = %d, want 10", got)
	}
}
