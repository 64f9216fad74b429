package core

import (
	"bytes"
	"sync"
	"testing"

	"webmeasure/internal/dataset"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/stats"
	"webmeasure/internal/tranco"
	"webmeasure/internal/tree"
)

// sharedAnalysis caches one experiment across the package's tests.
var (
	sharedOnce sync.Once
	shared     *Analysis
)

// sharedSeed seeds the shared experiment's universe and crawl.
const sharedSeed = 42

func sharedExperiment(t testing.TB) *Analysis {
	sharedOnce.Do(func() {
		shared = runExperiment(t, 50, 8, sharedSeed)
	})
	if shared == nil {
		t.Fatal("shared experiment failed to build")
	}
	return shared
}

func TestNewValidation(t *testing.T) {
	if _, err := New(dataset.New(), nil, Options{}); err == nil {
		t.Error("empty dataset should error")
	}
	// A page vetting excludes leaves an analysis with no pages, not an
	// error: its vetting tally records why.
	ds := dataset.New()
	ds.Add(&measurement.Visit{Site: "a.example", PageURL: "https://a.example/", Profile: "Sim1", Success: false, Failure: "x"})
	a, err := New(ds, nil, Options{})
	if err != nil {
		t.Fatalf("dataset without vetted pages: %v", err)
	}
	if v := a.Vetting(); len(a.Pages()) != 0 || v.PagesSeen != 1 || v.ExcludedFailed != 1 {
		t.Errorf("pages = %d, vetting = %+v; want no page and one excluded as failed", len(a.Pages()), v)
	}
}

func TestAnalysisStructure(t *testing.T) {
	a := sharedExperiment(t)
	if len(a.Profiles()) != 5 {
		t.Fatalf("profiles = %v", a.Profiles())
	}
	if len(a.Pages()) == 0 {
		t.Fatal("no vetted pages")
	}
	for _, pa := range a.Pages() {
		if len(pa.Trees) != 5 || pa.Cmp == nil {
			t.Fatalf("page %v malformed", pa.Key)
		}
		for i, tr := range pa.Trees {
			if tr.Profile != a.Profiles()[i] {
				t.Fatalf("tree order violated: %s at %d", tr.Profile, i)
			}
			if tr.PageURL != pa.Key.PageURL {
				t.Fatalf("tree page mismatch")
			}
		}
	}
	if a.profileIndex("Sim1") < 0 || a.profileIndex("nope") != -1 {
		t.Error("profileIndex broken")
	}
}

func TestCrawlSummary(t *testing.T) {
	a := sharedExperiment(t)
	cs := a.CrawlSummary()
	if cs.Sites == 0 || cs.Pages == 0 || cs.Visits != cs.Pages*5 {
		t.Errorf("summary inconsistent: %+v", cs)
	}
	if cs.VettedPages != len(a.Pages()) {
		t.Errorf("vetted mismatch: %d vs %d", cs.VettedPages, len(a.Pages()))
	}
	if cs.VettedShare <= 0 || cs.VettedShare >= 1 {
		t.Errorf("vetted share = %v", cs.VettedShare)
	}
	for p, n := range cs.VisitsPerProfile {
		if n != cs.Pages {
			t.Errorf("profile %s visits %d != pages %d", p, n, cs.Pages)
		}
	}
	if cs.PagesPerSite.Mean <= 0 {
		t.Error("pages per site not computed")
	}
}

func TestTreeOverviewInvariants(t *testing.T) {
	a := sharedExperiment(t)
	ov := a.TreeOverview()
	if ov.Nodes.Mean <= 0 || ov.Nodes.Min < 1 || ov.Nodes.Max < ov.Nodes.Mean {
		t.Errorf("node summary: %+v", ov.Nodes)
	}
	if ov.Depth.Mean <= 0 || ov.Breadth.Mean <= 0 {
		t.Errorf("depth/breadth: %+v %+v", ov.Depth, ov.Breadth)
	}
	if ov.MeanPresence < 1 || ov.MeanPresence > 5 {
		t.Errorf("presence mean = %v", ov.MeanPresence)
	}
	if s := ov.ShareInAll + ov.ShareInOne; s <= 0 || s > 1 {
		t.Errorf("presence shares: all=%v one=%v", ov.ShareInAll, ov.ShareInOne)
	}
	if ov.PairwiseVariation <= 0 || ov.PairwiseVariation >= 1 {
		t.Errorf("pairwise variation = %v", ov.PairwiseVariation)
	}
}

func TestDepthSimilarityTableShape(t *testing.T) {
	a := sharedExperiment(t)
	rows := a.DepthSimilarityTable()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Sim < 0 || r.Sim > 1 || r.Min > r.Max {
			t.Errorf("row %q out of range: %+v", r.Label, r)
		}
		if r.Category != stats.Categorize(r.Sim) {
			t.Errorf("row %q category mismatch", r.Label)
		}
	}
	byLabel := map[string]DepthSimilarityRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// Paper orderings: nodes-in-all-trees is the most similar; first-party
	// beats third-party.
	if byLabel["nodes in all trees"].Sim < byLabel["across all depths (all nodes)"].Sim {
		t.Error("nodes-in-all-trees must dominate all-nodes")
	}
	if byLabel["first-party nodes"].Sim <= byLabel["third-party nodes"].Sim {
		t.Error("first-party similarity must exceed third-party")
	}
}

func TestResourceChainTable(t *testing.T) {
	a := sharedExperiment(t)
	rows := a.ResourceChainTable()
	if len(rows) < 4 {
		t.Fatalf("too few resource types: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SameChainShare > rows[i-1].SameChainShare {
			t.Fatal("rows not sorted by same-chain share")
		}
	}
	for _, r := range rows {
		if r.SameChainShare < 0 || r.SameChainShare > 1 || r.ParentSim < 0 || r.ParentSim > 1 {
			t.Errorf("row %v out of range: %+v", r.Type, r)
		}
		if r.N < 5 {
			t.Errorf("row %v has too few observations", r.Type)
		}
	}
}

func TestProfileTotals(t *testing.T) {
	a := sharedExperiment(t)
	rows := a.ProfileTotals()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ProfileTotalsRow{}
	for _, r := range rows {
		byName[r.Profile] = r
		if r.Nodes <= 0 || r.ThirdParty <= 0 || r.Tracker <= 0 {
			t.Errorf("profile %s degenerate: %+v", r.Profile, r)
		}
		if r.ThirdParty >= r.Nodes || r.Tracker >= r.Nodes {
			t.Errorf("profile %s counts inconsistent: %+v", r.Profile, r)
		}
	}
	// §4.4: interaction grows trees; NoAction must be smallest.
	for _, name := range []string{"Old", "Sim1", "Sim2", "Headless"} {
		if byName["NoAction"].Nodes >= byName[name].Nodes {
			t.Errorf("NoAction (%d) not smaller than %s (%d)",
				byName["NoAction"].Nodes, name, byName[name].Nodes)
		}
		if byName["NoAction"].Tracker >= byName[name].Tracker {
			t.Errorf("NoAction trackers (%d) not fewer than %s (%d)",
				byName["NoAction"].Tracker, name, byName[name].Tracker)
		}
	}
}

func TestProfilePairTable(t *testing.T) {
	a := sharedExperiment(t)
	rows := a.ProfilePairTable("Sim1")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for name, v := range map[string]float64{
			"FPChildrenPerfect": r.FPChildrenPerfect, "TPChildrenPerfect": r.TPChildrenPerfect,
			"FPParentPerfect": r.FPParentPerfect, "TPParentPerfect": r.TPParentPerfect,
			"MeanParentSim": r.MeanParentSim, "MeanChildSim": r.MeanChildSim,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s.%s = %v out of range", r.Other, name, v)
			}
		}
		// First-party embeddings are more reproducible than third-party.
		if r.FPParentPerfect <= r.TPParentPerfect {
			t.Errorf("%s: FP parent perfect (%v) should exceed TP (%v)",
				r.Other, r.FPParentPerfect, r.TPParentPerfect)
		}
	}
	if rows := a.ProfilePairTable("missing"); rows != nil {
		t.Error("unknown reference should return nil")
	}
}

func TestNoActionShowsLargestDeviation(t *testing.T) {
	a := sharedExperiment(t)
	rows := a.ProfilePairTable("Sim1")
	byName := map[string]ProfilePairRow{}
	for _, r := range rows {
		byName[r.Other] = r
	}
	// §4.4 / Table 6: NoAction shows the lowest child similarity of all
	// profiles compared against Sim1.
	noa := byName["NoAction"]
	for _, other := range []string{"Sim2", "Old", "Headless"} {
		if noa.MeanChildSim >= byName[other].MeanChildSim {
			t.Errorf("NoAction child sim (%v) should be below %s (%v)",
				noa.MeanChildSim, other, byName[other].MeanChildSim)
		}
	}
}

func TestRankBuckets(t *testing.T) {
	a := sharedExperiment(t)
	res := a.RankBuckets(tranco.ScaledBoundaries(500))
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	total := 0
	for _, r := range res.Rows {
		total += r.Pages
		if r.Pages > 0 && (r.MeanNodes <= 0 || r.ChildSim <= 0 || r.ChildSim > 1) {
			t.Errorf("bucket %q degenerate: %+v", r.Bucket, r)
		}
	}
	if total != len(a.Pages()) {
		t.Errorf("bucketed pages %d != vetted %d", total, len(a.Pages()))
	}
	if res.TestError != nil {
		t.Errorf("tests failed: %v", res.TestError)
	}
	if res.Epsilon2 < 0 || res.Epsilon2 > 1 {
		t.Errorf("ε² = %v", res.Epsilon2)
	}
}

func TestFigures(t *testing.T) {
	a := sharedExperiment(t)

	h := a.DepthBreadthHistogram()
	if h.Total() != len(a.Pages())*5 {
		t.Errorf("Fig1 total %d != trees %d", h.Total(), len(a.Pages())*5)
	}

	d := a.SimilarityDistribution()
	if d.Children.Total() == 0 || d.Parents.Total() == 0 {
		t.Error("Fig2 histograms empty")
	}

	vols := a.NodeTypeVolume()
	if len(vols) != 8 {
		t.Fatalf("Fig3 rows = %d", len(vols))
	}
	for _, r := range vols {
		if r.Nodes == 0 {
			continue
		}
		if !almostOne(r.FirstParty+r.ThirdParty) || !almostOne(r.Tracking+r.NonTracking) {
			t.Errorf("Fig3 depth %s shares don't sum to 1: %+v", r.Depth, r)
		}
	}
	// Depth 0 is the visited page: first-party by construction.
	if vols[0].FirstParty < 0.99 {
		t.Errorf("depth-0 first-party share = %v", vols[0].FirstParty)
	}
	// Deeper levels are dominated by third parties (§4.3: 95% from depth 3).
	if vols[3].ThirdParty < 0.6 {
		t.Errorf("depth-3 third-party share = %v, want > 0.6", vols[3].ThirdParty)
	}

	sim := a.SimilarityByDepth()
	if len(sim) != 6 {
		t.Fatalf("Fig4 rows = %d", len(sim))
	}

	f5 := a.TypeSharesBySimilarity("parent", 8)
	if len(f5.Series) != 5 || len(f5.BinEdges) != 9 {
		t.Fatalf("Fig5 shape: %d series, %d edges", len(f5.Series), len(f5.BinEdges))
	}
	f5c := a.TypeSharesBySimilarity("children", 8)
	if f5c.Kind != "children" {
		t.Error("Fig5b kind")
	}

	f7 := a.TypeDepthSimilarity(8)
	if len(f7) == 0 {
		t.Fatal("Fig7 empty")
	}
	for _, r := range f7 {
		if r.Depth < 0 || r.Depth > 8 || r.ParentSim < 0 || r.ParentSim > 1 {
			t.Errorf("Fig7 row out of range: %+v", r)
		}
	}

	f8 := a.ChildrenByDepth(20, false)
	if len(f8) == 0 {
		t.Fatal("Fig8 empty")
	}
	f8c := a.ChildrenByDepth(20, true)
	for i, r := range f8c {
		if r.Mean < 1 {
			t.Errorf("Fig8 with-children row %d mean %v < 1", i, r.Mean)
		}
	}

	cs := a.ChildStats()
	if cs.RootChildren.Mean <= cs.PerNode.Mean {
		t.Error("roots must average more children than generic nodes")
	}
	if cs.ShareLeafDeep < 0.5 {
		t.Errorf("most non-root nodes should have ≤1 child: %v", cs.ShareLeafDeep)
	}
}

func almostOne(x float64) bool { return x > 0.999 && x < 1.001 }

func TestSubframeImpact(t *testing.T) {
	a := sharedExperiment(t)
	s := a.SubframeImpact()
	if s.WithSubframes == 0 || s.WithoutSubframes == 0 {
		t.Skipf("degenerate split: %+v", s)
	}
	// §4.2: pages without subframes are more similar.
	if s.ChildSimWithout <= s.ChildSimWith {
		t.Errorf("subframe pages should be less similar: with=%v without=%v",
			s.ChildSimWith, s.ChildSimWithout)
	}
}

func TestChainStabilityInvariants(t *testing.T) {
	a := sharedExperiment(t)
	c := a.ChainStability()
	if c.SameChainShareAll <= c.SameChainShareDeep {
		t.Errorf("including depth-one nodes must raise same-chain share: all=%v deep=%v",
			c.SameChainShareAll, c.SameChainShareDeep)
	}
	// §4.2: first-party chains are more stable than third-party; tracking
	// chains the least stable.
	if c.SameChainFP <= c.SameChainTP {
		t.Errorf("FP chains (%v) should beat TP (%v)", c.SameChainFP, c.SameChainTP)
	}
	if c.SameChainTracking >= c.SameChainOther {
		t.Errorf("tracking chains (%v) should trail non-tracking (%v)",
			c.SameChainTracking, c.SameChainOther)
	}
	if c.UniqueChainShare <= 0 {
		t.Error("some unique chains must exist")
	}
}

func TestCaseStudies(t *testing.T) {
	a := sharedExperiment(t)

	un := a.UniqueNodes()
	if un.UniqueShare <= 0.02 || un.UniqueShare >= 0.6 {
		t.Errorf("unique share = %v", un.UniqueShare)
	}
	if un.ThirdPartyShare < 0.5 {
		t.Errorf("unique nodes should be mostly third-party: %v", un.ThirdPartyShare)
	}
	if len(un.TypeShares) == 0 || len(un.TopHosts) == 0 {
		t.Error("unique node breakdowns empty")
	}

	ck := a.CookieStudy("NoAction")
	if ck.TotalObservations == 0 || ck.DistinctCookies == 0 {
		t.Fatal("no cookies observed")
	}
	if ck.PerProfile["NoAction"] >= ck.PerProfile["Sim1"] {
		t.Errorf("NoAction should observe fewest cookies: %+v", ck.PerProfile)
	}
	if ck.ShareInAllProfiles+ck.ShareInOneProfile > 1 {
		t.Errorf("cookie shares inconsistent: %+v", ck)
	}
	// §5.2: comparing interaction profiles against NoAction yields lower
	// similarity than the overall comparison.
	if ck.InteractionVsNone.Mean >= ck.MeanJaccard.Mean {
		t.Errorf("vs-NoAction similarity (%v) should be below overall (%v)",
			ck.InteractionVsNone.Mean, ck.MeanJaccard.Mean)
	}
	if ck.AttributeMismatch == 0 {
		t.Error("some cookies must differ in security attributes (§5.2)")
	}

	tr := a.TrackingStudy()
	if tr.TrackingShare <= 0.05 || tr.TrackingShare >= 0.6 {
		t.Errorf("tracking share = %v", tr.TrackingShare)
	}
	if tr.TrackingChildSim.Mean >= tr.NonTrackingChildSim.Mean {
		t.Errorf("tracking children (%v) should be less similar than non-tracking (%v)",
			tr.TrackingChildSim.Mean, tr.NonTrackingChildSim.Mean)
	}
	if tr.TrackingParentSim.Mean >= tr.NonTrackingParentSim.Mean {
		t.Errorf("tracking parents less similar expected: %v vs %v",
			tr.TrackingParentSim.Mean, tr.NonTrackingParentSim.Mean)
	}
	if tr.TriggeredByTracker < 0.3 {
		t.Errorf("trackers are mostly triggered by trackers: %v", tr.TriggeredByTracker)
	}
	var depthSum float64
	for _, s := range tr.DepthShares {
		depthSum += s
	}
	if !almostOne(depthSum) {
		t.Errorf("tracking depth shares sum to %v", depthSum)
	}
}

func TestRunTests(t *testing.T) {
	a := sharedExperiment(t)
	res := a.RunTests("Sim1", "NoAction")
	if res.ChildrenVsSimilarityErr != nil {
		t.Errorf("Wilcoxon failed: %v", res.ChildrenVsSimilarityErr)
	} else if !res.ChildrenVsSimilarity.Significant() {
		t.Errorf("children-vs-similarity not significant: p=%v", res.ChildrenVsSimilarity.P)
	}
	if res.InteractionDepthErr != nil {
		t.Errorf("Mann-Whitney failed: %v", res.InteractionDepthErr)
	}
	if res.TypeEffectErr != nil {
		t.Errorf("Kruskal-Wallis failed: %v", res.TypeEffectErr)
	} else if !res.TypeEffect.Significant() {
		t.Errorf("type effect not significant: p=%v", res.TypeEffect.P)
	}
	// Unknown profiles degrade gracefully.
	res = a.RunTests("nope", "missing")
	if res.InteractionDepthErr == nil {
		t.Error("missing profiles should error")
	}
}

func TestCompareSameConfig(t *testing.T) {
	a := sharedExperiment(t)
	sc := a.CompareSameConfig("Sim1", "Sim2")
	if sc.Pages != len(a.Pages()) {
		t.Errorf("pages = %d", sc.Pages)
	}
	if sc.UpperSim <= 0 || sc.UpperSim > 1 {
		t.Errorf("upper sim = %v", sc.UpperSim)
	}
	// §4.4: identical configurations still differ, more so on deep levels.
	if sc.UpperSim >= 0.995 {
		t.Errorf("identical profiles suspiciously identical: %v", sc.UpperSim)
	}
	if bad := a.CompareSameConfig("x", "y"); bad.Pages != 0 {
		t.Error("unknown profiles should yield zero result")
	}
}

func TestProfilePairwiseMatrix(t *testing.T) {
	a := sharedExperiment(t)
	names, m := a.ProfilePairwiseMatrix()
	if len(names) != 5 || len(m) != 5 {
		t.Fatalf("matrix shape: %d names, %d rows", len(names), len(m))
	}
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diagonal [%d] = %v", i, m[i][i])
		}
		for j := range m[i] {
			if m[i][j] != m[j][i] {
				t.Errorf("matrix not symmetric at (%d,%d)", i, j)
			}
			if m[i][j] < 0 || m[i][j] > 1 {
				t.Errorf("entry (%d,%d) out of range: %v", i, j, m[i][j])
			}
			if i != j && m[i][j] == 0 {
				t.Errorf("entry (%d,%d) is zero — pages missing", i, j)
			}
		}
	}
	// NoAction's row should average lowest (the outlier setup).
	avg := func(i int) float64 {
		var s float64
		for j := range m[i] {
			if j != i {
				s += m[i][j]
			}
		}
		return s / float64(len(m[i])-1)
	}
	noa := -1
	for i, n := range names {
		if n == "NoAction" {
			noa = i
		}
	}
	if noa < 0 {
		t.Fatal("NoAction missing")
	}
	for i, n := range names {
		if i != noa && avg(noa) >= avg(i) {
			t.Errorf("NoAction row mean (%.3f) should be lowest; %s has %.3f", avg(noa), n, avg(i))
		}
	}
}

func TestPartialVettingOption(t *testing.T) {
	a := sharedExperiment(t)
	ds := a.Dataset()
	strictPages := len(a.Pages())
	loose, err := New(ds, nil, Options{Profiles: a.Profiles(), MinSuccessProfiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(loose.Pages()) <= strictPages {
		t.Errorf("loose vetting pages %d should exceed strict %d", len(loose.Pages()), strictPages)
	}
	for _, pa := range loose.Pages() {
		if len(pa.Trees) < 2 {
			t.Fatalf("page %v admitted with %d trees", pa.Key, len(pa.Trees))
		}
		for _, tr := range pa.Trees {
			if pa.TreeFor(tr.Profile) != tr {
				t.Fatal("TreeFor inconsistent under partial vetting")
			}
		}
	}
	// Totals still work (keyed by profile name, not index).
	for _, row := range loose.ProfileTotals() {
		if row.Nodes == 0 {
			t.Errorf("profile %s empty under partial vetting", row.Profile)
		}
	}
}

// The analysis builds with a copy of Options.TreeBuilder: the caller's
// builder keeps its Filter through New and NewFromPartials.
func TestTreeBuilderNotModified(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 21)
	b := &tree.Builder{RawURLIdentity: true}
	opts.TreeBuilder = b
	if _, err := New(ds, filter, opts); err != nil {
		t.Fatal(err)
	}
	if b.Filter != nil {
		t.Fatal("New set the Filter of the caller's builder")
	}
	plan := ShardPlan{Count: 2, Seed: 3}
	parts := splitPartials(t, ds, filter, opts, plan)
	if _, err := NewFromPartials(ds, opts, plan, parts); err != nil {
		t.Fatal(err)
	}
	if b.Filter != nil {
		t.Fatal("New or NewFromPartials set the Filter of the caller's builder")
	}
	withFilter := &tree.Builder{Filter: filter}
	opts.TreeBuilder = withFilter
	if _, err := NewFromPartials(ds, opts, plan, parts); err != nil {
		t.Fatal(err)
	}
	if withFilter.Filter != filter {
		t.Fatal("NewFromPartials cleared the Filter of the caller's builder")
	}
}

// Two analyses sharing one builder, one with a filter list and one
// without, run at once and each answers as it does alone; under -race
// this also finds a write to the shared builder.
func TestSharedTreeBuilderConcurrent(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 21)
	opts.TreeBuilder = &tree.Builder{RawURLIdentity: true}
	filters := []*filterlist.List{filter, nil}
	want := make([][]byte, len(filters))
	for i, f := range filters {
		a, err := New(ds, f, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = exportJSON(t, a)
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("the filter list changes nothing: the test cannot tell the analyses apart")
	}
	got := make([]*Analysis, len(filters))
	errs := make([]error, len(filters))
	var wg sync.WaitGroup
	for i, f := range filters {
		wg.Add(1)
		go func(i int, f *filterlist.List) {
			defer wg.Done()
			got[i], errs[i] = New(ds, f, opts)
		}(i, f)
	}
	wg.Wait()
	for i := range filters {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(exportJSON(t, got[i]), want[i]) {
			t.Errorf("analysis %d run beside another differs from its run alone", i)
		}
	}
}

func TestCustomTreeBuilderOption(t *testing.T) {
	a := sharedExperiment(t)
	raw, err := New(a.Dataset(), nil, Options{
		Profiles:    a.Profiles(),
		TreeBuilder: &tree.Builder{RawURLIdentity: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Raw identity inflates node counts (session variants stay distinct).
	base := a.TreeOverview().Nodes.Mean
	inflated := raw.TreeOverview().Nodes.Mean
	if inflated <= base {
		t.Errorf("raw identity should inflate nodes: %v vs %v", inflated, base)
	}
}
