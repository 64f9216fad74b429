package browser

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"webmeasure/internal/faults"
	"webmeasure/internal/measurement"
	"webmeasure/internal/tranco"
	"webmeasure/internal/webgen"
)

// collectVisits gathers several successful visits across pages for
// structural assertions.
func collectVisits(t *testing.T, n int) []*measurement.Visit {
	t.Helper()
	u := webgen.New(webgen.DefaultConfig(42))
	b := New(DefaultProfiles()[1]) // Sim1
	var out []*measurement.Visit
	for i := 1; len(out) < n && i < 60; i++ {
		s := u.GenerateSite(tranco.Entry{Rank: i, Site: nameFor(i) + "-rt.example"})
		if s.Unreachable {
			continue
		}
		for _, p := range s.AllPages()[:min(3, len(s.AllPages()))] {
			if v := b.Visit(p, 5); v.Success {
				out = append(out, v)
				if len(out) == n {
					break
				}
			}
		}
	}
	if len(out) < n {
		t.Fatalf("only %d successful visits", len(out))
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestResponseMetadataFilled(t *testing.T) {
	var statuses = map[int]bool{}
	for _, v := range collectVisits(t, 10) {
		for _, r := range v.Requests {
			if r.Status == 0 {
				t.Fatalf("request %s has no status", r.URL)
			}
			statuses[r.Status] = true
			if r.Type != measurement.TypeWebSocket && r.ContentType == "" {
				t.Fatalf("request %s has no content type", r.URL)
			}
			if r.BodySize < 0 {
				t.Fatalf("request %s has negative size", r.URL)
			}
			switch r.Type {
			case measurement.TypeBeacon:
				if r.Status != 204 && r.Status != 302 {
					t.Errorf("beacon status = %d", r.Status)
				}
			case measurement.TypeWebSocket:
				if r.Status != 101 {
					t.Errorf("websocket status = %d", r.Status)
				}
			}
			// Images respond 200, soft-404, or 302 (cookie-sync hops keep
			// the final resource's type).
			if r.Type == measurement.TypeImage &&
				r.Status != 200 && r.Status != 404 && r.Status != 302 {
				t.Errorf("image status = %d", r.Status)
			}
		}
	}
	if !statuses[200] {
		t.Error("no 200 responses observed")
	}
}

func TestRedirectHopsAre302(t *testing.T) {
	found := false
	for _, v := range collectVisits(t, 15) {
		byURL := map[string]measurement.Request{}
		for _, r := range v.Requests {
			byURL[r.URL] = r
		}
		for _, r := range v.Requests {
			if r.RedirectFrom != "" {
				src := byURL[r.RedirectFrom]
				if src.Status != 302 {
					t.Errorf("redirect source %s has status %d, want 302", src.URL, src.Status)
				}
				found = true
			}
		}
	}
	if !found {
		t.Skip("no redirects in sample")
	}
}

func TestFrameIDsConsistent(t *testing.T) {
	for _, v := range collectVisits(t, 10) {
		// Every non-top frame referenced by a request must correspond to a
		// subframe request observed earlier.
		frameDocs := map[string]bool{v.PageURL: true}
		for _, r := range v.Requests {
			if r.Type == measurement.TypeSubFrame {
				frameDocs[r.URL] = true
			}
		}
		for _, r := range v.Requests {
			if r.FrameID != measurement.TopFrameID && r.FrameURL != "" {
				if !frameDocs[r.FrameURL] {
					t.Fatalf("request %s rides in unknown frame %s", r.URL, r.FrameURL)
				}
			}
		}
	}
}

func TestTimeOffsetsRespectCausality(t *testing.T) {
	for _, v := range collectVisits(t, 10) {
		offsets := map[string]int{}
		for _, r := range v.Requests {
			offsets[r.URL] = r.TimeOffsetMS
		}
		for _, r := range v.Requests {
			// A call-stack child cannot be issued before its initiator
			// finished loading.
			if len(r.CallStack) > 0 {
				parent := r.CallStack[len(r.CallStack)-1].URL
				if po, ok := offsets[parent]; ok && r.TimeOffsetMS < po {
					t.Fatalf("child %s at %dms precedes parent %s at %dms",
						r.URL, r.TimeOffsetMS, parent, po)
				}
			}
			if r.RedirectFrom != "" {
				if po, ok := offsets[r.RedirectFrom]; ok && r.TimeOffsetMS < po {
					t.Fatalf("redirect target %s precedes source", r.URL)
				}
			}
		}
	}
}

func TestVariantChoiceStablePerVisit(t *testing.T) {
	// The same nonce must always pick the same ad creative; different
	// nonces eventually pick different ones.
	u := webgen.New(webgen.DefaultConfig(42))
	var page *webgen.Page
	for i := 1; i < 60; i++ {
		s := u.GenerateSite(tranco.Entry{Rank: i, Site: nameFor(i) + "-var.example"})
		if !s.Unreachable && s.Landing.CountResources() > 120 {
			page = s.Landing
			break
		}
	}
	if page == nil {
		t.Skip("no ad-heavy page found")
	}
	b := New(DefaultProfiles()[1])
	creativeSet := func(nonce uint64) string {
		v := b.Visit(page, nonce)
		if !v.Success {
			return ""
		}
		var urls []string
		for _, r := range v.Requests {
			if strings.Contains(r.URL, "/creative/") {
				urls = append(urls, r.URL)
			}
		}
		return strings.Join(urls, "|")
	}
	a1, a2 := creativeSet(77), creativeSet(77)
	if a1 != a2 {
		t.Error("same nonce must pick the same creatives")
	}
	differs := false
	for n := uint64(100); n < 140; n++ {
		if s := creativeSet(n); s != "" && s != a1 {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("creative choice never varied across nonces")
	}
}

func TestStatefulJarSharedAcrossVisits(t *testing.T) {
	u := webgen.New(webgen.DefaultConfig(42))
	var site *webgen.Site
	for i := 1; i < 40; i++ {
		s := u.GenerateSite(tranco.Entry{Rank: i, Site: nameFor(i) + "-jar.example"})
		if !s.Unreachable && len(s.Pages) >= 2 {
			site = s
			break
		}
	}
	if site == nil {
		t.Skip("no suitable site")
	}
	b := New(DefaultProfiles()[1])
	jar := NewJar()
	var v1, v2 *measurement.Visit
	for n := uint64(0); n < 30; n++ {
		v1 = b.VisitAttempt(site.Pages[0], n, 0, jar)
		if v1.Success {
			break
		}
	}
	for n := uint64(50); n < 90; n++ {
		v2 = b.VisitAttempt(site.Pages[1], n, 0, jar)
		if v2.Success {
			break
		}
	}
	if v1 == nil || !v1.Success || v2 == nil || !v2.Success {
		t.Skip("visits failed")
	}
	if len(v2.Cookies) < len(v1.Cookies) {
		t.Errorf("shared jar must accumulate: first %d, second %d", len(v1.Cookies), len(v2.Cookies))
	}
}

func TestKeystrokeBindingForLazyContent(t *testing.T) {
	ks := Keystrokes()
	if len(ks) != 3 || ks[0].Key != "PageDown" || ks[1].Key != "Tab" || ks[2].Key != "End" {
		t.Fatalf("keystroke sequence wrong: %+v", ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i].AtMS <= ks[i-1].AtMS {
			t.Fatal("keystrokes must be ordered in time")
		}
	}
	// Lazy resources never load before the first keystroke; an anchored
	// subset waits for later keystrokes.
	u := webgen.New(webgen.DefaultConfig(42))
	b := New(DefaultProfiles()[1])
	lazyOffsets := map[int]int{}
	for i := 1; i < 30; i++ {
		s := u.GenerateSite(tranco.Entry{Rank: i, Site: nameFor(i) + "-keys.example"})
		if s.Unreachable {
			continue
		}
		v := b.Visit(s.Landing, 3)
		if !v.Success {
			continue
		}
		for _, r := range v.Requests {
			if strings.Contains(r.URL, "/assets/lazy-") {
				lazyOffsets[r.TimeOffsetMS]++
				if r.TimeOffsetMS < ks[0].AtMS {
					t.Fatalf("lazy image at %dms before first keystroke", r.TimeOffsetMS)
				}
			}
		}
	}
	if len(lazyOffsets) < 2 {
		t.Error("lazy loads all bound to one instant; keystroke spread dead")
	}
}

// fixedTransport disturbs every attempt with the same outcome.
type fixedTransport faults.Outcome

func (f fixedTransport) RoundTrip(string, string, int) faults.Outcome { return faults.Outcome(f) }

// checkExactSize fails when a visit's request slice has spare capacity.
func checkExactSize(t *testing.T, what string, v *measurement.Visit) {
	t.Helper()
	if len(v.Requests) != cap(v.Requests) {
		t.Errorf("%s: %d requests in a backing array of %d", what, len(v.Requests), cap(v.Requests))
	}
}

// TestVisitRequestsExactSize pins that VisitAttempt hands back every
// visit's requests in an exact-size slice, whatever the fault: the
// renderer's pooled scratch and append growth never reach a visit.
func TestVisitRequestsExactSize(t *testing.T) {
	page := testPage(t)
	prof := profileNamed(t, "Sim1")
	cases := []struct {
		name   string
		tr     Transport
		status string
		fault  string
	}{
		{"clean", nil, measurement.VisitOK, ""},
		{"truncated", fixedTransport{Kind: faults.Truncate, TruncateAtMS: 400}, measurement.VisitDegraded, "truncate"},
		{"latency-stalled", fixedTransport{Kind: faults.Latency, ExtraLatencyMS: DefaultTimeoutMS - 500}, measurement.VisitDegraded, "latency"},
		{"redirect-loop", fixedTransport{Kind: faults.RedirectLoop, Hops: 7, Failure: "redirect loop"}, measurement.VisitFailed, "redirect_loop"},
	}
	for _, tc := range cases {
		b := &Browser{Profile: prof, Transport: tc.tr}
		seen := 0
		for nonce := uint64(0); nonce < 40; nonce++ {
			v := b.VisitAttempt(page, nonce, 0, NewJar())
			checkExactSize(t, tc.name, v)
			if v.FaultKind != tc.fault || (!v.Success && v.FaultKind == "") {
				continue // a browser-level failure preempts the transport
			}
			seen++
			if v.Status != tc.status || len(v.Requests) == 0 {
				t.Fatalf("%s: status %q with %d requests, want %q with some", tc.name, v.Status, len(v.Requests), tc.status)
			}
		}
		if seen == 0 {
			t.Errorf("%s: no visit reached the transport", tc.name)
		}
	}

	b := New(prof)
	failed := 0
	for nonce := uint64(0); nonce < 400; nonce++ {
		if v := b.Visit(page, nonce); !v.Success {
			failed++
			checkExactSize(t, "browser-failed", v)
		}
	}
	if failed == 0 {
		t.Error("no browser-failed visit in 400 nonces")
	}
}

// TestConcurrentVisitsShareNoBackingArray renders visits on 8 goroutines
// at once: each visit's requests must live in a backing array of its own
// and equal the same visit rendered alone, so no two renders ever share
// pooled scratch.
func TestConcurrentVisitsShareNoBackingArray(t *testing.T) {
	page := testPage(t)
	transports := []Transport{
		nil,
		fixedTransport{Kind: faults.Truncate, TruncateAtMS: 900},
		fixedTransport{Kind: faults.RedirectLoop, Hops: 5, Failure: "redirect loop"},
	}
	const workers, each = 8, 24
	visits := make([][]*measurement.Visit, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				b := &Browser{Profile: DefaultProfiles()[i%5], Transport: transports[i%len(transports)]}
				visits[w] = append(visits[w], b.VisitAttempt(page, uint64(w*each+i), 0, NewJar()))
			}
		}()
	}
	wg.Wait()

	type span struct{ lo, hi uintptr }
	var spans []span
	size := unsafe.Sizeof(measurement.Request{})
	for w, vs := range visits {
		for i, v := range vs {
			checkExactSize(t, "concurrent", v)
			b := &Browser{Profile: DefaultProfiles()[i%5], Transport: transports[i%len(transports)]}
			if alone := b.VisitAttempt(page, uint64(w*each+i), 0, NewJar()); !reflect.DeepEqual(v, alone) {
				t.Fatalf("visit %d of goroutine %d differs from the same visit rendered alone", i, w)
			}
			if cap(v.Requests) > 0 {
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(v.Requests)))
				spans = append(spans, span{lo, lo + uintptr(cap(v.Requests))*size})
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("two visits share a backing array (%#x..%#x overlaps %#x)", spans[i-1].lo, spans[i-1].hi, spans[i].lo)
		}
	}
	if len(spans) < workers*each/2 {
		t.Fatalf("only %d of %d visits recorded requests", len(spans), workers*each)
	}
}
