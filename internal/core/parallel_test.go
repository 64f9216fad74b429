package core

import (
	"reflect"
	"testing"

	"webmeasure/internal/filterlist"
	"webmeasure/internal/metrics"
	"webmeasure/internal/webgen"
)

// sharedFilter parses the shared experiment's filter list again.
func sharedFilter() *filterlist.List {
	l, _ := filterlist.Parse(webgen.New(webgen.DefaultConfig(sharedSeed)).FilterListText())
	return l
}

// buildWith rebuilds the shared experiment's analysis with a given worker
// count (and optional metrics registry).
func buildWith(t testing.TB, workers int, m *metrics.Registry) *Analysis {
	t.Helper()
	a := sharedExperiment(t)
	out, err := New(a.Dataset(), sharedFilter(), Options{
		Profiles: a.Profiles(),
		SiteRank: a.siteRank,
		Workers:  workers,
		Metrics:  m,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWorkerPoolDeterministic rebuilds the shared experiment's analysis
// with several worker counts and requires identical structure: same
// vetted pages in the same order, same trees, same per-node comparison
// aggregates.
func TestWorkerPoolDeterministic(t *testing.T) {
	base := buildWith(t, 1, nil)
	for _, workers := range []int{2, 4, 8} {
		got := buildWith(t, workers, nil)
		if len(got.Pages()) != len(base.Pages()) {
			t.Fatalf("workers=%d: %d pages vs %d with workers=1",
				workers, len(got.Pages()), len(base.Pages()))
		}
		for i, pa := range got.Pages() {
			ref := base.Pages()[i]
			if pa.Key != ref.Key {
				t.Fatalf("workers=%d: page %d is %v, want %v", workers, i, pa.Key, ref.Key)
			}
			if len(pa.Trees) != len(ref.Trees) {
				t.Fatalf("workers=%d: page %v has %d trees, want %d",
					workers, pa.Key, len(pa.Trees), len(ref.Trees))
			}
			for ti, tr := range pa.Trees {
				rt := ref.Trees[ti]
				if tr.Profile != rt.Profile || tr.NodeCount() != rt.NodeCount() || tr.MaxDepth() != rt.MaxDepth() {
					t.Fatalf("workers=%d: page %v tree %d differs (%s %d %d vs %s %d %d)",
						workers, pa.Key, ti,
						tr.Profile, tr.NodeCount(), tr.MaxDepth(),
						rt.Profile, rt.NodeCount(), rt.MaxDepth())
				}
			}
			if len(pa.Cmp.Nodes) != len(ref.Cmp.Nodes) {
				t.Fatalf("workers=%d: page %v has %d compared nodes, want %d",
					workers, pa.Key, len(pa.Cmp.Nodes), len(ref.Cmp.Nodes))
			}
			for key, ni := range pa.Cmp.Nodes {
				rn := ref.Cmp.Nodes[key]
				if rn == nil {
					t.Fatalf("workers=%d: node %s missing from reference", workers, key)
				}
				if !reflect.DeepEqual(ni.Depths, rn.Depths) || ni.ChildSim != rn.ChildSim || ni.ParentSim != rn.ParentSim {
					t.Fatalf("workers=%d: node %s aggregate differs", workers, key)
				}
			}
		}
	}
}

// TestWorkerPoolSameTables spot-checks that the derived tables — the
// actual outputs of the pipeline — agree across worker counts.
func TestWorkerPoolSameTables(t *testing.T) {
	one := buildWith(t, 1, nil)
	eight := buildWith(t, 8, nil)
	if !reflect.DeepEqual(one.TreeOverview(), eight.TreeOverview()) {
		t.Error("TreeOverview differs between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(one.DepthSimilarityTable(), eight.DepthSimilarityTable()) {
		t.Error("DepthSimilarityTable differs between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(one.ProfileTotals(), eight.ProfileTotals()) {
		t.Error("ProfileTotals differs between workers=1 and workers=8")
	}
}

// TestWorkerPoolMetrics checks the pool reports consistent counters: the
// pages seen equal the dataset's page groups, vetted pages equal the
// analysis output, and every vetted page timed its work.
func TestWorkerPoolMetrics(t *testing.T) {
	m := metrics.New()
	a := buildWith(t, 4, m)
	s := m.Snapshot()
	counters := map[string]int64{}
	for _, c := range s.Counters {
		counters[c.Name] = c.Value
	}
	if got, want := counters["analysis.pages"], int64(len(a.Dataset().Pages())); got != want {
		t.Errorf("analysis.pages = %d, want %d", got, want)
	}
	if got, want := counters["analysis.pages.vetted"], int64(len(a.Pages())); got != want {
		t.Errorf("analysis.pages.vetted = %d, want %d", got, want)
	}
	var treeCount int64
	for _, pa := range a.Pages() {
		treeCount += int64(len(pa.Trees))
	}
	// Trees are built only for pages that pass vetting, and generated data
	// has no malformed visits, so every tree built is a vetted page's.
	if counters["analysis.trees"] != treeCount {
		t.Errorf("analysis.trees = %d, want %d (vetted pages' trees)", counters["analysis.trees"], treeCount)
	}
	var pageMS *metrics.HistogramStat
	for i := range s.Histograms {
		if s.Histograms[i].Name == "analysis.page_ms" {
			pageMS = &s.Histograms[i]
		}
	}
	if pageMS == nil || pageMS.Count != counters["analysis.pages"] {
		t.Errorf("analysis.page_ms should time every page group: %+v", pageMS)
	}
}

// TestWorkerPoolOversizedWorkers exercises the workers > pages clamp.
func TestWorkerPoolOversizedWorkers(t *testing.T) {
	a := sharedExperiment(t)
	out, err := New(a.Dataset(), sharedFilter(), Options{
		Profiles: a.Profiles(),
		Workers:  10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pages()) != len(a.Pages()) {
		t.Fatalf("oversized pool changed the result: %d vs %d pages",
			len(out.Pages()), len(a.Pages()))
	}
}
