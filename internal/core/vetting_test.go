package core

import (
	"testing"

	"webmeasure/internal/dataset"
	"webmeasure/internal/measurement"
)

// vettingVisit fabricates one visit with enough shape to build a tree
// when it is clean.
func vettingVisit(page, profile, status string) *measurement.Visit {
	v := &measurement.Visit{
		Site:    "a.example",
		PageURL: page,
		Profile: profile,
		Status:  status,
		Success: status != measurement.VisitFailed,
	}
	if v.Success {
		v.Requests = []measurement.Request{
			{URL: page, Type: measurement.TypeMainFrame},
			{URL: "https://a.example/app.js", Type: measurement.TypeScript, FrameURL: page},
		}
	}
	return v
}

// vettingDataset builds four pages, one per exclusion scenario, plus one
// clean page.
func vettingDataset(profiles []string) *dataset.Dataset {
	ds := dataset.New()
	add := func(page string, statusFor func(prof string, i int) string) {
		for i, p := range profiles {
			st := statusFor(p, i)
			if st == "absent" {
				continue
			}
			ds.Add(vettingVisit(page, p, st))
		}
	}
	clean := func(string, int) string { return measurement.VisitOK }
	add("https://a.example/clean", clean)
	add("https://a.example/missing", func(_ string, i int) string {
		if i == 0 {
			return "absent"
		}
		return measurement.VisitOK
	})
	add("https://a.example/failed", func(_ string, i int) string {
		if i == 1 {
			return measurement.VisitFailed
		}
		return measurement.VisitOK
	})
	add("https://a.example/degraded", func(_ string, i int) string {
		if i == 2 {
			return measurement.VisitDegraded
		}
		return measurement.VisitOK
	})
	return ds
}

func TestVettingClassifiesExclusions(t *testing.T) {
	profiles := []string{"Sim1", "Sim2", "Headless"}
	a, err := analyzeDataset(vettingDataset(profiles), nil, Options{Profiles: profiles})
	if err != nil {
		t.Fatal(err)
	}
	vet := a.Vetting()
	want := Vetting{
		PagesSeen: 4, PagesVetted: 1,
		ExcludedMissing: 1, ExcludedFailed: 1, ExcludedDegraded: 1,
	}
	if vet != want {
		t.Errorf("vetting = %+v, want %+v", vet, want)
	}
	if vet.Excluded() != 3 {
		t.Errorf("Excluded() = %d", vet.Excluded())
	}
	if got := vet.ExclusionShare(); got != 0.75 {
		t.Errorf("ExclusionShare() = %v", got)
	}
	if len(a.Pages()) != 1 || a.Pages()[0].Key.PageURL != "https://a.example/clean" {
		t.Errorf("vetted pages = %+v", a.Pages())
	}
	cs := a.CrawlSummary()
	if cs.Vetting != vet {
		t.Errorf("CrawlSummary.Vetting = %+v, want %+v", cs.Vetting, vet)
	}
}

// TestVettingAllowDegraded: the escape hatch admits truncated loads.
func TestVettingAllowDegraded(t *testing.T) {
	profiles := []string{"Sim1", "Sim2", "Headless"}
	a, err := analyzeDataset(vettingDataset(profiles), nil, Options{Profiles: profiles, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	vet := a.Vetting()
	if vet.PagesVetted != 2 || vet.ExcludedDegraded != 0 {
		t.Errorf("AllowDegraded vetting = %+v", vet)
	}
}

// TestVettingReasonPriority: a page with both a missing and a degraded
// visit counts once, under the severer reason.
func TestVettingReasonPriority(t *testing.T) {
	profiles := []string{"Sim1", "Sim2", "Headless"}
	ds := dataset.New()
	ds.Add(vettingVisit("https://a.example/p", "Sim2", measurement.VisitDegraded))
	ds.Add(vettingVisit("https://a.example/p", "Headless", measurement.VisitFailed))
	ds.Add(vettingVisit("https://a.example/ok", "Sim1", measurement.VisitOK))
	ds.Add(vettingVisit("https://a.example/ok", "Sim2", measurement.VisitOK))
	ds.Add(vettingVisit("https://a.example/ok", "Headless", measurement.VisitOK))
	a, err := analyzeDataset(ds, nil, Options{Profiles: profiles})
	if err != nil {
		t.Fatal(err)
	}
	vet := a.Vetting()
	if vet.ExcludedMissing != 1 || vet.Excluded() != 1 {
		t.Errorf("priority violated: %+v", vet)
	}
}

// TestVettingLegacyRecords: records without a Status field (older
// datasets) classify from the Success flag alone.
func TestVettingLegacyRecords(t *testing.T) {
	profiles := []string{"Sim1", "Sim2"}
	ds := dataset.New()
	for _, p := range profiles {
		v := vettingVisit("https://a.example/p", p, measurement.VisitOK)
		v.Status = ""
		ds.Add(v)
	}
	a, err := analyzeDataset(ds, nil, Options{Profiles: profiles})
	if err != nil {
		t.Fatal(err)
	}
	if vet := a.Vetting(); vet.PagesVetted != 1 || vet.Excluded() != 0 {
		t.Errorf("legacy records mishandled: %+v", a.Vetting())
	}
}
