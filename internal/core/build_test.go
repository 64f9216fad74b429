package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"webmeasure/internal/colstore"
	"webmeasure/internal/dataset"
	"webmeasure/internal/faults"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
	"webmeasure/internal/tree"
	"webmeasure/internal/urlutil"
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

// TestAttributionOnEveryScoringPath: attribution is scored in the per-page
// pass against the worker's URL table, and a merged partial keeps the
// score its shard shipped. Every path that feeds a stream — sites written
// as a crawl emits them, a columnar reload through the block tables, a
// JSONL reload, a three-shard merge of encoded partials, and the raw-URL
// ablation — must score each vetted page exactly as building and scoring
// each of its ground-truth visits from scratch does, and Attribution must
// be their sum.
func TestAttributionOnEveryScoringPath(t *testing.T) {
	rawURL := func(o Options) Options {
		o.TreeBuilder = &tree.Builder{RawURLIdentity: true}
		return o
	}
	paths := []struct {
		name    string
		raw     bool
		analyze func(t *testing.T, ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Analysis, *dataset.Dataset)
	}{
		{"crawl-fed", false, analyzeWrittenSites},
		{"columnar", false, analyzeColumnar},
		{"jsonl", false, analyzeJSONL},
		{"shards3", false, func(t *testing.T, ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Analysis, *dataset.Dataset) {
			plan := ShardPlan{Count: 3, Seed: 3}
			a, err := NewFromPartials(ds, opts, plan, splitPartials(t, ds, filter, opts, plan))
			if err != nil {
				t.Fatal(err)
			}
			return a, ds
		}},
		{"raw-url", true, func(t *testing.T, ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Analysis, *dataset.Dataset) {
			a, err := New(ds, filter, rawURL(opts))
			if err != nil {
				t.Fatal(err)
			}
			return a, ds
		}},
		{"raw-url-columnar", true, func(t *testing.T, ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Analysis, *dataset.Dataset) {
			return analyzeColumnar(t, ds, filter, rawURL(opts))
		}},
	}
	for _, crawl := range []struct {
		name   string
		faults faults.Profile
	}{
		{"clean", faults.Off()},
		{"heavy", faults.Heavy()},
	} {
		ds, filter, opts := faultyExperiment(t, 13, crawl.faults)
		opts.Workers = 2
		for _, p := range paths {
			t.Run(crawl.name+"/"+p.name, func(t *testing.T) {
				a, visits := p.analyze(t, ds, filter, opts)
				scorer := &tree.Builder{RawURLIdentity: p.raw}
				var want AttributionReport
				for _, pa := range a.Pages() {
					var page AttributionReport
					for _, tr := range pa.Trees {
						v := visits.PageGroup(pa.Key).ByProfile[tr.Profile]
						if !hasGroundTruth(v) {
							continue
						}
						r, err := scorer.EvaluateAttribution(v)
						if err != nil {
							t.Fatal(err)
						}
						page.add(AttributionReport{Visits: 1, Attributable: r.Attributable, Correct: r.Correct,
							RootFallbacks: r.RootFallbacks, MergeArtifacts: r.MergeArtifacts})
					}
					if pa.Attribution != page {
						t.Errorf("%v: page scored %+v, build-then-score gives %+v", pa.Key, pa.Attribution, page)
					}
					want.add(page)
				}
				if want.Visits == 0 || want.Attributable == 0 {
					t.Fatalf("oracle scored %+v", want)
				}
				if got := a.Attribution(); got != want {
					t.Errorf("Attribution() = %+v, per-visit EvaluateAttribution sums to %+v", got, want)
				}
			})
		}
	}
}

// analyzeWrittenSites feeds a fresh stream each site's visits through
// WriteSite, the crawl sink path, in the dataset's site order.
func analyzeWrittenSites(t *testing.T, ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Analysis, *dataset.Dataset) {
	t.Helper()
	out := dataset.New()
	s, err := NewStream(out, filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	bySite := map[string][]*measurement.Visit{}
	var sites []string
	for _, v := range ds.Visits() {
		if bySite[v.Site] == nil {
			sites = append(sites, v.Site)
		}
		bySite[v.Site] = append(bySite[v.Site], v)
	}
	for _, site := range sites {
		if err := s.WriteSite(site, bySite[site]); err != nil {
			t.Fatal(err)
		}
	}
	a, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return a, out
}

// analyzeColumnar encodes the dataset in the columnar format and streams
// it back as a columnar load does: every block decoded into one scratch
// block and analyzed through its scratch URL table, which the next block
// overwrites. The returned visits are ds's own, since the stream keeps
// none.
func analyzeColumnar(t *testing.T, ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Analysis, *dataset.Dataset) {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCol(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(nil, filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := colstore.ScanScratch(&buf, func(sb *colstore.SiteBlock, keys *urlutil.KeyCache) error {
		return s.AddSiteVisits(sb.Site, sb.Visits, keys)
	}); err != nil {
		t.Fatal(err)
	}
	a, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return a, ds
}

// analyzeJSONL round-trips the dataset through JSONL and analyzes the
// reload, each page through its own URL table.
func analyzeJSONL(t *testing.T, ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Analysis, *dataset.Dataset) {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := dataset.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(out, filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, out
}

// TestURLTablesCoverEveryURL: AppendURLs must list every URL a visit
// holds, found by walking all of its string fields rather than by naming
// them, repeats included. A site block's URL table, built from the
// strings its URL columns mark, and a page's table, built from its visits'
// AppendURLs, must each resolve every one of them with Normalize's key,
// so no tree build or attribution lookup falls back to a parse.
func TestURLTablesCoverEveryURL(t *testing.T) {
	for _, crawl := range []struct {
		name   string
		faults faults.Profile
	}{
		{"clean", faults.Off()},
		{"heavy", faults.Heavy()},
	} {
		ds, _, _ := faultyExperiment(t, 17, crawl.faults)
		var buf bytes.Buffer
		if err := ds.WriteCol(&buf); err != nil {
			t.Fatal(err)
		}
		lookups, blocks := 0, 0
		check := func(table string, keys *urlutil.KeyCache, raw string) {
			lookups++
			key, _, stripped, ok := keys.Lookup(raw)
			wantKey, wantStripped := urlutil.Normalize(raw)
			if !ok {
				t.Errorf("%s: %q is missing from %s", crawl.name, raw, table)
			} else if key != wantKey || stripped != wantStripped {
				t.Errorf("%s: %q resolves to (%q, %v) in %s, Normalize gives (%q, %v)", crawl.name, raw, key, stripped, table, wantKey, wantStripped)
			}
		}
		if _, err := colstore.Scan(&buf, func(sb *colstore.SiteBlock) error {
			blocks++
			block := sb.KeyCache()
			for _, pv := range dataset.GroupVisits(sb.Visits) {
				var visits []*measurement.Visit
				for _, v := range pv.ByProfile {
					visits = append(visits, v)
				}
				page := pageKeys(visits)
				for _, v := range visits {
					listed, held := v.AppendURLs(nil), urlFields(reflect.ValueOf(*v), nil)
					slices.Sort(listed)
					slices.Sort(held)
					if !slices.Equal(listed, held) {
						t.Errorf("%s: %s/%s: AppendURLs lists %d URLs, the visit's fields hold %d", crawl.name, v.PageURL, v.Profile, len(listed), len(held))
					}
					for _, raw := range held {
						check("block "+sb.Site+"'s table", block, raw)
						check("page "+pv.Key.PageURL+"'s table", page, raw)
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if blocks == 0 || lookups == 0 {
			t.Fatalf("%s: checked %d lookups in %d blocks", crawl.name, lookups, blocks)
		}
	}
}

// urlFields appends every URL ("scheme://…") held in a string field
// reachable from v, through structs, slices and pointers.
func urlFields(v reflect.Value, dst []string) []string {
	switch v.Kind() {
	case reflect.String:
		if s := v.String(); strings.Contains(s, "://") {
			dst = append(dst, s)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dst = urlFields(v.Field(i), dst)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			dst = urlFields(v.Index(i), dst)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			dst = urlFields(v.Elem(), dst)
		}
	}
	return dst
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
