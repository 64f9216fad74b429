package crawler

import (
	"bytes"
	"context"
	"testing"

	"webmeasure/internal/browser"
	"webmeasure/internal/measurement"
	"webmeasure/internal/tranco"
	"webmeasure/internal/webgen"
)

// TestStatefulAccumulatesCookies verifies the Appendix C design choice:
// stateful crawls carry cookies across a site's pages, so later visits
// observe cookies set earlier; stateless visits never do.
func TestStatefulAccumulatesCookies(t *testing.T) {
	u := webgen.New(webgen.DefaultConfig(17))
	list := tranco.Generate(30, 17)
	// Find a reachable site with several pages.
	var entry tranco.Entry
	for _, e := range list.Entries() {
		s := u.GenerateSite(e)
		if !s.Unreachable && len(s.Pages) >= 4 {
			entry = e
			break
		}
	}
	if entry.Site == "" {
		t.Skip("no suitable site found")
	}
	profiles := browser.DefaultProfiles()[1:2] // Sim1 only

	run := func(stateful bool) []int {
		ds, _, err := Run(context.Background(), Config{
			Universe: u, Sites: []tranco.Entry{entry}, MaxPages: 4,
			Instances: 2, Seed: 17, Stateful: stateful, Profiles: profiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		var counts []int
		for _, pv := range ds.Pages() {
			if v := pv.ByProfile["Sim1"]; v != nil && v.Success {
				counts = append(counts, len(v.Cookies))
			}
		}
		return counts
	}

	stateless := run(false)
	stateful := run(true)
	if len(stateful) < 2 || len(stateless) < 2 {
		t.Skipf("too few successful visits: %d/%d", len(stateful), len(stateless))
	}
	sum := func(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	// Carrying the jar across pages means later pages report the union of
	// earlier cookies: strictly more observations in total.
	if sum(stateful) <= sum(stateless) {
		t.Errorf("stateful cookies (%d) should exceed stateless (%d)",
			sum(stateful), sum(stateless))
	}
}

// TestStatefulDeterministic: the sequential session is still a pure
// function of the seed.
func TestStatefulDeterministic(t *testing.T) {
	u := webgen.New(webgen.DefaultConfig(3))
	list := tranco.Generate(5, 3)
	cfg := Config{
		Universe: u, Sites: list.Entries(), MaxPages: 3,
		Seed: 3, Stateful: true, Profiles: browser.DefaultProfiles()[:2],
	}
	a, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lens differ: %d vs %d", a.Len(), b.Len())
	}
	pa, pb := a.Pages(), b.Pages()
	for i := range pa {
		for prof, va := range pa[i].ByProfile {
			vb := pb[i].ByProfile[prof]
			if len(va.Cookies) != len(vb.Cookies) || len(va.Requests) != len(vb.Requests) {
				t.Fatalf("page %v profile %s differs across runs", pa[i].Key, prof)
			}
		}
	}
}

// TestResumeReusesVisits: an interrupted crawl continues from a checkpoint
// without redoing completed visits, and produces the same dataset a fresh
// full crawl would.
func TestResumeReusesVisits(t *testing.T) {
	u := webgen.New(webgen.DefaultConfig(29))
	list := tranco.Generate(10, 29)
	profiles := browser.DefaultProfiles()[:3]
	full := Config{
		Universe: u, Sites: list.Entries(), MaxPages: 3,
		Instances: 3, Seed: 29, Profiles: profiles,
	}

	// The "interrupted" crawl covered only the first 4 sites.
	partialCfg := full
	partialCfg.Sites = list.Entries()[:4]
	partial, _, err := Run(context.Background(), partialCfg)
	if err != nil {
		t.Fatal(err)
	}

	resumed := full
	resumed.Resume = partial
	ds, st, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if st.VisitsReused == 0 {
		t.Fatal("no visits reused from the checkpoint")
	}
	if st.VisitsReused > partial.Len() {
		t.Fatalf("reused %d > checkpoint size %d", st.VisitsReused, partial.Len())
	}

	fresh, _, err := Run(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != fresh.Len() {
		t.Fatalf("resumed dataset %d visits vs fresh %d", ds.Len(), fresh.Len())
	}
	fp, rp := fresh.Pages(), ds.Pages()
	for i := range fp {
		for prof, fv := range fp[i].ByProfile {
			rv := rp[i].ByProfile[prof]
			if rv == nil || fv.Success != rv.Success || len(fv.Requests) != len(rv.Requests) {
				t.Fatalf("page %v profile %s differs between fresh and resumed", fp[i].Key, prof)
			}
		}
	}
}

// TestResumeRetriesFailures: failed visits in the checkpoint are not
// reused (a resume is the chance to retry them).
func TestResumeRetriesFailures(t *testing.T) {
	u := webgen.New(webgen.DefaultConfig(31))
	list := tranco.Generate(6, 31)
	cfg := Config{
		Universe: u, Sites: list.Entries(), MaxPages: 3,
		Instances: 2, Seed: 31, Profiles: browser.DefaultProfiles()[:2],
	}
	first, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for _, v := range first.Visits() {
		if !v.Success {
			failures++
		}
	}
	if failures == 0 {
		t.Skip("no failures to retry at this seed")
	}
	cfg.Resume = first
	_, st, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.VisitsReused != first.Len()-failures {
		t.Errorf("reused %d, want successes only (%d)", st.VisitsReused, first.Len()-failures)
	}
}

// TestEpochChangesCrawl: the same configuration at a later epoch observes
// a drifted web.
func TestEpochChangesCrawl(t *testing.T) {
	u := webgen.New(webgen.DefaultConfig(37))
	list := tranco.Generate(8, 37)
	base := Config{
		Universe: u, Sites: list.Entries(), MaxPages: 4,
		Instances: 3, Seed: 37, Profiles: browser.DefaultProfiles()[:2],
	}
	d0, _, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	later := base
	later.Epoch = 3
	d3, _, err := Run(context.Background(), later)
	if err != nil {
		t.Fatal(err)
	}
	set := func(visits []*measurement.Visit) map[string]bool {
		out := map[string]bool{}
		for _, v := range visits {
			for _, r := range v.Requests {
				out[r.URL] = true
			}
		}
		return out
	}
	s0, s3 := set(d0.Visits()), set(d3.Visits())
	if len(s0) == 0 || len(s3) == 0 {
		t.Fatal("empty crawls")
	}
	diff := 0
	for u3 := range s3 {
		if !s0[u3] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("epoch 3 observed no new URLs — drift dead at the crawler level")
	}
}

// TestOnVisitStreamsEverything: the streaming sink sees exactly the visits
// a sink-free run of the same config records, including reused checkpoint
// entries on resume.
func TestOnVisitStreamsEverything(t *testing.T) {
	u := webgen.New(webgen.DefaultConfig(41))
	list := tranco.Generate(6, 41)
	cfg := Config{
		Universe: u, Sites: list.Entries(), MaxPages: 3,
		Instances: 3, Seed: 41, Profiles: browser.DefaultProfiles()[:2],
	}
	for _, resume := range []bool{false, true} {
		want, st, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resume && st.VisitsReused == 0 {
			t.Fatal("nothing reused")
		}
		sink := &orderSink{}
		cfg.Sink = sink
		if _, _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.streamed(t), jsonlOf(t, want)) {
			t.Errorf("resume=%v: sink streamed %d visits, differing from the sink-free dataset's %d",
				resume, len(sink.visits), want.Len())
		}
		// The second pass resumes from this pass's sink-free dataset.
		cfg.Sink, cfg.Resume = nil, want
	}
}
