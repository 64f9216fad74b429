package core

import (
	"encoding/json"
	"testing"

	"webmeasure/internal/dataset"
	"webmeasure/internal/faults"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
	"webmeasure/internal/tree"
)

// TestPageTableTreesMatchPlainBuild is the equivalence oracle for the
// per-page URL table the analysis builds every tree through when its
// caller passes none (crawl-fed runs, JSONL loads). Over generated crawls,
// clean and under heavy faults, every clean visit of a vetted page must
// carry the same tree as a plain Build of that visit, and Attribution must
// equal the build-then-score evaluation summed over the vetted visits
// that carry ground truth.
func TestPageTableTreesMatchPlainBuild(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		faults faults.Profile
	}{
		{"clean-seed5", 5, faults.Off()},
		{"clean-seed11", 11, faults.Off()},
		{"heavy-seed5", 5, faults.Heavy()},
		{"heavy-seed11", 11, faults.Heavy()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, filter, opts := faultyExperiment(t, tc.seed, tc.faults)
			opts.Workers = 2
			a, err := New(ds, filter, opts)
			if err != nil {
				t.Fatal(err)
			}
			plain := &tree.Builder{Filter: filter}
			var want AttributionReport
			checked := 0
			for _, pa := range a.Pages() {
				pv := ds.PageGroup(pa.Key)
				for _, prof := range a.Profiles() {
					v := pv.ByProfile[prof]
					if !v.Success || !v.Clean() {
						t.Fatalf("vetted page %v holds an unclean %s visit", pa.Key, prof)
					}
					got := pa.TreeFor(prof)
					if got == nil {
						t.Fatalf("vetted page %v has no %s tree", pa.Key, prof)
					}
					ref, err := plain.Build(v)
					if err != nil {
						t.Fatal(err)
					}
					gj, _ := json.Marshal(got.Record())
					rj, _ := json.Marshal(ref.Record())
					if string(gj) != string(rj) {
						t.Fatalf("%v/%s: tree built through the page table differs from Build:\ntable: %s\nplain: %s", pa.Key, prof, gj, rj)
					}
					checked++
					if !hasGroundTruth(v) {
						continue
					}
					r, err := (&tree.Builder{}).EvaluateAttribution(v)
					if err != nil {
						t.Fatal(err)
					}
					want.Visits++
					want.Attributable += r.Attributable
					want.Correct += r.Correct
					want.RootFallbacks += r.RootFallbacks
					want.MergeArtifacts += r.MergeArtifacts
				}
			}
			if checked == 0 || want.Visits == 0 {
				t.Fatalf("oracle checked %d trees, %d visits with ground truth", checked, want.Visits)
			}
			if got := a.Attribution(); got != want {
				t.Errorf("Attribution() = %+v, per-visit EvaluateAttribution sums to %+v", got, want)
			}
		})
	}
}

// TestVettingBuildsNoTreeForExcludedPage: vetting runs before the build
// stage, so a page with one failed profile builds no tree at all — it
// keeps its failed reason, adds nothing to analysis.trees, and records no
// analyze.build span.
func TestVettingBuildsNoTreeForExcludedPage(t *testing.T) {
	profiles := []string{"Sim1", "Sim2", "Headless"}
	ds := dataset.New()
	for i, p := range profiles {
		ds.Add(vettingVisit("https://a.example/clean", p, measurement.VisitOK))
		status := measurement.VisitOK
		if i == 1 {
			status = measurement.VisitFailed
		}
		ds.Add(vettingVisit("https://a.example/failed", p, status))
	}
	m := metrics.New()
	tracer := trace.New(trace.Options{})
	a, err := New(ds, nil, Options{Profiles: profiles, Metrics: m, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Vetting{PagesSeen: 2, PagesVetted: 1, ExcludedFailed: 1}); a.Vetting() != want {
		t.Errorf("vetting = %+v, want %+v", a.Vetting(), want)
	}
	if got := m.Counter("analysis.trees").Value(); got != int64(len(profiles)) {
		t.Errorf("analysis.trees = %d, want %d (the vetted page's trees only)", got, len(profiles))
	}
	builds := 0
	for _, st := range tracer.StageBreakdown() {
		if st.Stage == "analyze.build" {
			builds += st.Count
		}
	}
	if builds != len(profiles) {
		t.Errorf("%d analyze.build spans, want %d (the vetted page's)", builds, len(profiles))
	}
}
