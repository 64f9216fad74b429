package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"webmeasure/internal/dataset"
	"webmeasure/internal/faults"
	"webmeasure/internal/measurement"
)

// siteBatches splits a dataset's sorted page groups into one batch per
// site, in ascending site order.
func siteBatches(ds *dataset.Dataset) [][]*dataset.PageVisits {
	var out [][]*dataset.PageVisits
	for pages := ds.Pages(); len(pages) > 0; {
		n := 1
		for n < len(pages) && pages[n].Key.Site == pages[0].Key.Site {
			n++
		}
		out = append(out, pages[:n])
		pages = pages[n:]
	}
	return out
}

// TestStreamSiteOrderFree: a Stream fed the same sites in ascending,
// reverse, and shuffled order seals to the same analysis — the export
// JSON byte for byte and the vetting tally — as AddDataset over the
// dataset.
// Heavy faults make the tally exclude pages for every reason.
func TestStreamSiteOrderFree(t *testing.T) {
	ds, filter, opts := faultyExperiment(t, 9, faults.Heavy())
	opts.Workers = 2
	direct, err := analyzeDataset(ds, filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, direct)
	batches := siteBatches(ds)
	if len(batches) < 3 {
		t.Fatalf("only %d sites crawled", len(batches))
	}
	reverse := make([][]*dataset.PageVisits, len(batches))
	for i, b := range batches {
		reverse[len(batches)-1-i] = b
	}
	shuffled := append([][]*dataset.PageVisits(nil), batches...)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, tc := range []struct {
		name  string
		order [][]*dataset.PageVisits
	}{
		{"ascending", batches},
		{"reverse", reverse},
		{"shuffled", shuffled},
	} {
		s, err := NewStream(ds, filter, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, pages := range tc.order {
			if err := s.AddSite(pages[0].Key.Site, pages, nil); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		a, err := s.Finish()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := a.Vetting(); got != direct.Vetting() {
			t.Errorf("%s: vetting %+v, want %+v", tc.name, got, direct.Vetting())
		}
		if got := exportJSON(t, a); !bytes.Equal(got, want) {
			t.Errorf("%s: export differs from AddDataset's (%d vs %d bytes)", tc.name, len(got), len(want))
		}
	}
}

// TestStreamRejectsBadSites: a site added twice, and a page filed under
// another site's batch, are errors rather than silently merged.
func TestStreamRejectsBadSites(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 9)
	batches := siteBatches(ds)
	s, err := NewStream(ds, filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := batches[0]
	if err := s.AddSite(first[0].Key.Site, first, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSite(first[0].Key.Site, first, nil); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("repeated site: got %v, want an added-twice error", err)
	}
	second := batches[1]
	if err := s.AddSite(second[0].Key.Site, append([]*dataset.PageVisits{first[0]}, second...), nil); err == nil ||
		!strings.Contains(err.Error(), "in batch for") {
		t.Errorf("page of another site: got %v, want a wrong-batch error", err)
	}
	// The rejected batch left no mark: its site can still be added.
	if err := s.AddSite(second[0].Key.Site, second, nil); err != nil {
		t.Errorf("site of a rejected batch: %v", err)
	}
}

// TestCrawlSummaryCountsRepeatedVisits: a dataset holding a second visit
// of one (page, profile) pair, a failed one, counts both in the crawl
// summary, as Dataset.Len and an independent count of each profile's
// successes do, whether the visits arrive as a dataset (AddDataset) or as
// flat sites (AddSiteVisits).
func TestCrawlSummaryCountsRepeatedVisits(t *testing.T) {
	src, filter, opts := shardExperiment(t, 9)
	ds := dataset.New()
	bySite := map[string][]*measurement.Visit{}
	for _, v := range src.Visits() {
		ds.Add(v)
		bySite[v.Site] = append(bySite[v.Site], v)
	}
	repeat := *src.Visits()[0]
	repeat.Success, repeat.Requests = false, nil
	ds.Add(&repeat)
	bySite[repeat.Site] = append(bySite[repeat.Site], &repeat)

	direct, err := analyzeDataset(ds, filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(nil, filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	for site, visits := range bySite {
		if err := s.AddSiteVisits(site, visits, nil); err != nil {
			t.Fatal(err)
		}
	}
	flat, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	visits, successes := map[string]int{}, map[string]int{}
	for _, v := range ds.Visits() {
		visits[v.Profile]++
		if v.Success {
			successes[v.Profile]++
		}
	}
	for name, a := range map[string]*Analysis{"AddDataset": direct, "AddSiteVisits": flat} {
		cs := a.CrawlSummary()
		if cs.Visits != ds.Len() || cs.Pages != len(ds.Pages()) {
			t.Errorf("%s: %d visits on %d pages, the dataset holds %d on %d", name, cs.Visits, cs.Pages, ds.Len(), len(ds.Pages()))
		}
		for _, p := range opts.Profiles {
			if got, want := cs.SuccessRate[p], float64(successes[p])/float64(visits[p]); got != want {
				t.Errorf("%s: %s success rate %v, %d of %d visits succeeded", name, p, got, successes[p], visits[p])
			}
		}
	}
}
