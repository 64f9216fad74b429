package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"webmeasure/internal/colstore"
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

func TestProfiles(t *testing.T) {
	d := New()
	d.Add(visit("a.example", "https://a.example/", "Sim1", true))
	d.Add(visit("b.example", "https://b.example/", "Sim1", false))
	d.Add(visit("b.example", "https://b.example/", "Old", true))
	if got := d.Profiles(); len(got) != 2 || got[0] != "Old" || got[1] != "Sim1" {
		t.Errorf("Profiles = %v", got)
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

// TestDetectFormat sniffs the magic from inputs of every length around
// it and requires the returned reader to yield the whole input, and a
// failing reader's error to surface.
func TestDetectFormat(t *testing.T) {
	line := `{"site":"a.example","page_url":"https://a.example/","profile":"Sim1"}` + "\n"
	errRead := errors.New("disk on fire")
	for _, tc := range []struct {
		name, in string
		r        io.Reader // overrides in when set
		format   string
		err      error
	}{
		{name: "empty", in: "", format: FormatJSONL},
		{name: "shorter than the magic", in: colstore.Magic[:3], format: FormatJSONL},
		{name: "magic alone", in: colstore.Magic, format: FormatCol},
		{name: "magic one byte per read", in: colstore.Magic, r: iotest.OneByteReader(strings.NewReader(colstore.Magic)), format: FormatCol},
		{name: "one JSONL line", in: line, format: FormatJSONL},
		{name: "failing reader", r: iotest.ErrReader(errRead), err: errRead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.r
			if r == nil {
				r = strings.NewReader(tc.in)
			}
			format, rd, err := DetectFormat(r)
			if tc.err != nil {
				if !errors.Is(err, tc.err) {
					t.Fatalf("err = %v, want %v", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if format != tc.format {
				t.Errorf("format = %q, want %q", format, tc.format)
			}
			rest, err := io.ReadAll(rd)
			if err != nil {
				t.Fatal(err)
			}
			if string(rest) != tc.in {
				t.Errorf("reader yields %q, want %q", rest, tc.in)
			}
		})
	}
}

// TestStreamedRecordGrowsWithInput: a stream (a reader that cannot say
// how much of it is left, as a file read through cmd/convert or a crawl's
// resume is) whose block declares far more bytes than it holds fails
// without allocating the declared length, through colstore.Scan and
// through ReadCol; a whole file read one byte per call still decodes to
// the dataset an in-memory read gives.
func TestStreamedRecordGrowsWithInput(t *testing.T) {
	forged := []byte(colstore.Magic + "BLK\n") // the header, then a block record's magic
	forged = binary.AppendUvarint(forged, 256<<20)
	if len(forged) != 17 {
		t.Fatalf("forged input is %d bytes, want 17", len(forged))
	}
	stream := func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} }
	for name, read := range map[string]func(io.Reader) error{
		"colstore.Scan": func(r io.Reader) error {
			_, err := colstore.Scan(r, func(*colstore.SiteBlock) error { return nil })
			return err
		},
		"ReadCol": func(r io.Reader) error { _, err := ReadCol(r); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read(stream(forged))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "read block payload") {
			t.Errorf("%s of a 17-byte stream declaring a 256 MiB block: err %v, want a short payload", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
			t.Errorf("%s allocated %d bytes for a %d-byte stream", name, grew, len(forged))
		}
	}

	d := New()
	for i := 0; i < 50; i++ {
		d.Add(visit("a.example", "https://a.example/"+strings.Repeat("p", i+1), "Sim1", i%3 != 0))
	}
	var col bytes.Buffer
	if err := d.WriteCol(&col); err != nil {
		t.Fatal(err)
	}
	want, err := ReadCol(bytes.NewReader(col.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCol(iotest.OneByteReader(bytes.NewReader(col.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := want.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("a one-byte-per-read stream decodes to %d bytes of JSONL, the in-memory read to %d", b.Len(), a.Len())
	}
}
