package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"webmeasure/internal/measurement"
)

// makeVisit builds a visit exercising every encoded field: nested
// requests with call stacks, redirects, set-cookie headers, cookie
// observations, fault metadata, and float timing.
func makeVisit(site, page, profile string, nreq int) *measurement.Visit {
	v := &measurement.Visit{
		Site:         site,
		PageURL:      page,
		Profile:      profile,
		Success:      nreq%3 != 0,
		Status:       "ok",
		Attempts:     1 + nreq%2,
		Retryable:    nreq%5 == 0,
		StartOffsetS: 0.25 * float64(nreq),
		DurationMS:   1200 + 17*nreq,
	}
	if !v.Success {
		v.Failure = "timeout"
		v.FaultKind = "nav-timeout"
		v.Status = "degraded"
	}
	for i := 0; i < nreq; i++ {
		req := measurement.Request{
			URL:          fmt.Sprintf("https://%s/asset-%d.js", site, i),
			Type:         measurement.ResourceType(i % 4),
			FrameID:      i % 2,
			Status:       200,
			ContentType:  "application/javascript",
			BodySize:     4096 + 13*i,
			TimeOffsetMS: 40 * i,
		}
		if i%2 == 1 {
			req.FrameURL = fmt.Sprintf("https://%s/frame", site)
			req.RedirectFrom = fmt.Sprintf("https://%s/asset-%d.js?v=1", site, i)
			req.CallStack = []measurement.StackFrame{
				{FuncName: "loadAsset", URL: page, Line: 10 + i},
				{FuncName: "main", URL: fmt.Sprintf("https://%s/app.js", site), Line: 2},
			}
			req.SetCookies = []string{fmt.Sprintf("sess=%d; Path=/", i)}
			req.TrueParentURL = page
		}
		v.Requests = append(v.Requests, req)
	}
	v.Cookies = []measurement.CookieObservation{
		{Name: "sess", Domain: site, Path: "/", Secure: true, HTTPOnly: true, SameSite: "Lax"},
		{Name: "pref", Domain: "." + site, Path: "/"},
	}
	return v
}

func siteRows(site string, startSeq uint64, pages, profiles int) []VisitRow {
	var rows []VisitRow
	seq := startSeq
	for p := 0; p < pages; p++ {
		page := fmt.Sprintf("https://%s/page-%d", site, p)
		for pr := 0; pr < profiles; pr++ {
			rows = append(rows, VisitRow{
				Seq:   seq,
				Visit: makeVisit(site, page, fmt.Sprintf("profile-%d", pr), 3+p+pr),
			})
			seq += 2 // gaps exercise the delta encoding
		}
	}
	return rows
}

func TestBlockRoundTrip(t *testing.T) {
	rows := siteRows("example.org", 7, 3, 2)
	payload := encodeBlock("example.org", rows)
	sb, err := decodeBlock(payload)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Site != "example.org" {
		t.Errorf("site = %q", sb.Site)
	}
	if len(sb.Visits) != len(rows) {
		t.Fatalf("decoded %d visits, want %d", len(sb.Visits), len(rows))
	}
	for i, r := range rows {
		if sb.Seqs[i] != r.Seq {
			t.Errorf("visit %d: seq %d, want %d", i, sb.Seqs[i], r.Seq)
		}
		if !reflect.DeepEqual(sb.Visits[i], r.Visit) {
			t.Errorf("visit %d differs after round trip:\n got %+v\nwant %+v", i, sb.Visits[i], r.Visit)
		}
	}
	if got, want := sb.Pages(), []string{
		"https://example.org/page-0", "https://example.org/page-1", "https://example.org/page-2",
	}; !reflect.DeepEqual(got, want) {
		t.Errorf("Pages() = %v, want %v", got, want)
	}
	if kc := sb.KeyCache(); kc.NumKeys() == 0 {
		t.Error("KeyCache has no keys")
	}
	// KeyCache builds from the strings the URL columns mark: the visits'
	// URLs (measurement.Visit.AppendURLs) and none of the block's other
	// strings. The empty string an absent URL references is ignored.
	want, marked := map[string]bool{}, map[string]bool{}
	for _, v := range sb.Visits {
		for _, raw := range v.AppendURLs(nil) {
			want[raw] = true
		}
	}
	for i, s := range sb.Strings {
		if sb.isURL[i] && s != "" {
			marked[s] = true
		}
	}
	if !reflect.DeepEqual(marked, want) {
		t.Errorf("URL columns mark %v, the visits' URLs are %v", marked, want)
	}
}

func TestBlockRoundTripEmptyFields(t *testing.T) {
	// A minimal visit: no requests, no cookies — decoded slices must be
	// nil (not empty) so JSON re-encoding omits them identically.
	v := &measurement.Visit{Site: "s.org", PageURL: "https://s.org/", Profile: "p", Success: true}
	sb, err := decodeBlock(encodeBlock("s.org", []VisitRow{{Seq: 0, Visit: v}}))
	if err != nil {
		t.Fatal(err)
	}
	got := sb.Visits[0]
	if got.Requests != nil || got.Cookies != nil {
		t.Errorf("empty slices decoded non-nil: requests=%v cookies=%v", got.Requests, got.Cookies)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("round trip: got %+v, want %+v", got, v)
	}
}

func TestStringInterning(t *testing.T) {
	rows := siteRows("intern.net", 0, 2, 3)
	sb, err := decodeBlock(encodeBlock("intern.net", rows))
	if err != nil {
		t.Fatal(err)
	}
	// Two visits to the same page must share one string header, not hold
	// equal copies — the retained-memory property of the format.
	a, b := sb.Visits[0].PageURL, sb.Visits[1].PageURL
	if a != b {
		t.Fatalf("expected same page, got %q and %q", a, b)
	}
	if unsafeStringData(a) != unsafeStringData(b) {
		t.Error("identical page URLs decoded to distinct string headers (not interned)")
	}
}

func unsafeStringData(s string) uintptr {
	return (*reflect.StringHeader)(reflect.ValueOf(&s).Elem().UnsafePointer()).Data
}

func writeFile(t *testing.T, sites map[string][]VisitRow) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	names := make([]string, 0, len(sites))
	for s := range sites {
		names = append(names, s)
	}
	// Writer demands ascending site order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, s := range names {
		if err := w.WriteSite(s, sites[s]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriterScanReader(t *testing.T) {
	sites := map[string][]VisitRow{
		"a.org": siteRows("a.org", 0, 2, 2),
		"b.org": siteRows("b.org", 100, 1, 2),
		"c.org": siteRows("c.org", 200, 3, 1),
	}
	data := writeFile(t, sites)

	// Sequential scan sees every site in order with matching visits.
	var order []string
	idx, err := Scan(bytes.NewReader(data), func(sb *SiteBlock) error {
		order = append(order, sb.Site)
		want := sites[sb.Site]
		if len(sb.Visits) != len(want) {
			t.Errorf("site %s: %d visits, want %d", sb.Site, len(sb.Visits), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(sb.Visits[i], want[i].Visit) {
				t.Errorf("site %s visit %d differs", sb.Site, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"a.org", "b.org", "c.org"}) {
		t.Errorf("scan order %v", order)
	}
	if idx.Schema != SchemaVersion || len(idx.Blocks) != 3 {
		t.Fatalf("index: schema %d, %d blocks", idx.Schema, len(idx.Blocks))
	}
	if got := idx.TotalVisits(); got != 4+2+3 {
		t.Errorf("TotalVisits = %d", got)
	}

	// Random access through the footer index.
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, meta := range r.Index().Blocks {
		if meta.Visits != len(sites[meta.Site]) {
			t.Errorf("block %d meta visits %d", i, meta.Visits)
		}
		for j := 1; j < len(meta.Pages); j++ {
			if meta.Pages[j-1] >= meta.Pages[j] {
				t.Errorf("block %d pages not sorted: %v", i, meta.Pages)
			}
		}
		sb, err := r.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		if sb.Site != meta.Site {
			t.Errorf("block %d: decoded %q, index %q", i, sb.Site, meta.Site)
		}
		if !reflect.DeepEqual(sb.Pages(), meta.Pages) {
			t.Errorf("block %d: pages %v vs index %v", i, sb.Pages(), meta.Pages)
		}
		// The Writer encodes every block with one reused encoder, yet each
		// record must hold exactly the payload of its site encoded alone.
		payload := encodeBlock(meta.Site, sites[meta.Site])
		rec := data[meta.Offset : meta.Offset+meta.Length]
		wantLen := len(blockMagic) + len(binary.AppendUvarint(nil, uint64(len(payload)))) + len(payload) + 4
		if len(rec) != wantLen || !bytes.Equal(rec[len(rec)-4-len(payload):len(rec)-4], payload) {
			t.Errorf("block %d (%s): record differs from its site's standalone payload", i, meta.Site)
		}
	}
	if _, err := r.Block(3); err == nil {
		t.Error("Block(3) out of range succeeded")
	}
}

func TestWriterEmptyDataset(t *testing.T) {
	data := writeFile(t, nil)
	idx, err := Scan(bytes.NewReader(data), func(*SiteBlock) error {
		t.Error("fn called on empty dataset")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Blocks) != 0 {
		t.Errorf("%d blocks", len(idx.Blocks))
	}
	if _, err := OpenReader(bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("OpenReader on empty dataset: %v", err)
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteSite("m.org", siteRows("m.org", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSite("m.org", siteRows("m.org", 10, 1, 1)); err == nil {
		t.Error("duplicate site accepted")
	}

	w2 := NewWriter(&bytes.Buffer{})
	if err := w2.WriteSite("x.org", siteRows("y.org", 0, 1, 1)); err == nil {
		t.Error("mismatched visit site accepted")
	}

	w3 := NewWriter(&bytes.Buffer{})
	rows := siteRows("z.org", 5, 1, 2)
	rows[0].Seq, rows[1].Seq = rows[1].Seq, rows[0].Seq
	if err := w3.WriteSite("z.org", rows); err == nil {
		t.Error("out-of-sequence rows accepted")
	}
}

func TestWriterAnySiteOrder(t *testing.T) {
	// The streaming crawl emits blocks in site-list order, which for the
	// generated site names is not lexicographic.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	emitted := []string{"m.org", "a.org", "z.org"}
	for i, site := range emitted {
		if err := w.WriteSite(site, siteRows(site, uint64(i*10), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// The body scans in emission order...
	var bodyOrder []string
	idx, err := Scan(bytes.NewReader(data), func(sb *SiteBlock) error {
		bodyOrder = append(bodyOrder, sb.Site)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bodyOrder, emitted) {
		t.Errorf("body order %v, want %v", bodyOrder, emitted)
	}
	// ...but the footer index is sorted by site, so index consumers never
	// depend on emission order.
	var idxOrder []string
	for _, b := range idx.Blocks {
		idxOrder = append(idxOrder, b.Site)
	}
	if !reflect.DeepEqual(idxOrder, []string{"a.org", "m.org", "z.org"}) {
		t.Errorf("index order %v", idxOrder)
	}
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, meta := range r.Index().Blocks {
		sb, err := r.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		if sb.Site != meta.Site {
			t.Errorf("block %d: decoded %q, index %q", i, sb.Site, meta.Site)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	data := writeFile(t, map[string][]VisitRow{"a.org": siteRows("a.org", 0, 2, 2)})

	t.Run("flipped-payload-byte", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[len(Magic)+len(blockMagic)+6] ^= 0xff
		if _, err := Scan(bytes.NewReader(bad), func(*SiteBlock) error { return nil }); err == nil {
			t.Error("scan accepted corrupted block")
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Errorf("error does not mention checksum: %v", err)
		}
	})
	t.Run("bad-header", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[0] = 'X'
		if _, err := Scan(bytes.NewReader(bad), nil); err == nil {
			t.Error("scan accepted bad header magic")
		}
		if _, err := OpenReader(bytes.NewReader(bad), int64(len(bad))); err == nil {
			t.Error("OpenReader accepted bad header magic")
		}
	})
	t.Run("truncated-tail", func(t *testing.T) {
		bad := data[:len(data)-4]
		if _, err := OpenReader(bytes.NewReader(bad), int64(len(bad))); err == nil {
			t.Error("OpenReader accepted truncated file")
		}
	})
	t.Run("truncated-mid-block", func(t *testing.T) {
		bad := data[:len(Magic)+len(blockMagic)+3]
		if _, err := Scan(bytes.NewReader(bad), func(*SiteBlock) error { return nil }); err == nil {
			t.Error("scan accepted truncated block")
		}
	})
	t.Run("short-file", func(t *testing.T) {
		if _, err := OpenReader(bytes.NewReader(data[:8]), 8); err == nil {
			t.Error("OpenReader accepted 8-byte file")
		}
	})
}

func TestScanCallbackErrorAborts(t *testing.T) {
	data := writeFile(t, map[string][]VisitRow{
		"a.org": siteRows("a.org", 0, 1, 1),
		"b.org": siteRows("b.org", 10, 1, 1),
	})
	calls := 0
	wantErr := fmt.Errorf("stop here")
	_, err := Scan(bytes.NewReader(data), func(*SiteBlock) error {
		calls++
		return wantErr
	})
	if err != wantErr {
		t.Errorf("err = %v, want the callback's error verbatim", err)
	}
	if calls != 1 {
		t.Errorf("callback ran %d times after erroring", calls)
	}
}

func TestSniff(t *testing.T) {
	data := writeFile(t, nil)
	if !Sniff(data) {
		t.Error("Sniff rejected a columnar file")
	}
	if Sniff([]byte(`{"site":"a.org"}`)) {
		t.Error("Sniff accepted JSONL")
	}
	if Sniff(data[:4]) {
		t.Error("Sniff accepted a too-short prefix")
	}
}

// growShrinkFile writes sites whose blocks grow and then shrink in size,
// so Scan's payload buffer is regrown and then reused for smaller blocks.
func growShrinkFile(t testing.TB) ([]byte, []string) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var names []string
	for i, pages := range []int{1, 3, 6, 10, 4, 2, 1} {
		site := fmt.Sprintf("s%d.example", i)
		if err := w.WriteSite(site, siteRows(site, uint64(100*i), pages, 3)); err != nil {
			t.Fatal(err)
		}
		names = append(names, site)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), names
}

// TestScanBlocksOwnTheirBytes keeps every block Scan hands out, across a
// payload buffer that grows and is then reused for smaller blocks, and
// requires each, once the scan has ended, to equal field by field its
// payload decoded alone from a copy of its own bytes: no decoded field
// may alias the reused buffer.
func TestScanBlocksOwnTheirBytes(t *testing.T) {
	data, names := growShrinkFile(t)
	var kept []*SiteBlock
	idx, err := Scan(bytes.NewReader(data), func(sb *SiteBlock) error {
		kept = append(kept, sb)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(names) || len(idx.Blocks) != len(names) {
		t.Fatalf("scanned %d blocks, indexed %d, wrote %d", len(kept), len(idx.Blocks), len(names))
	}
	largest := 0
	for i, meta := range idx.Blocks {
		if meta.Length > idx.Blocks[largest].Length {
			largest = i
		}
	}
	if largest == 0 || largest == len(names)-1 {
		t.Fatalf("block sizes do not grow and then shrink (largest is block %d)", largest)
	}
	for i, meta := range idx.Blocks {
		rec := data[meta.Offset : meta.Offset+meta.Length]
		n, used := uvarintFrom(rec[len(blockMagic):])
		start := len(blockMagic) + used
		alone, err := DecodeBlockPayload(bytes.Clone(rec[start : start+int(n)]))
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if kept[i].Site != names[i] {
			t.Errorf("block %d: site %q, want %q", i, kept[i].Site, names[i])
		}
		if !reflect.DeepEqual(kept[i], alone) {
			t.Errorf("block %d (%s): scanned block differs from its payload decoded alone", i, meta.Site)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	data, _ := growShrinkFile(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(bytes.NewReader(data), func(*SiteBlock) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
