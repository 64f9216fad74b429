package webmeasure

import (
	"context"
	"testing"

	"webmeasure/internal/browser"
	"webmeasure/internal/core"
	"webmeasure/internal/coverage"
	"webmeasure/internal/crawler"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/tranco"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
	"webmeasure/internal/webgen"
)

// BenchmarkExtensionStabilityMetric runs the §8-takeaway-1 metric: the
// per-experiment fluctuation score and the estimated number of repeated
// measurements needed to exhaust a page's behaviour.
func BenchmarkExtensionStabilityMetric(b *testing.B) {
	res := benchExperiment(b)
	a := res.Analysis()
	rep := a.Stability()
	b.Logf("\nstability: page mean %.2f (high %d / med %d / low %d); expected discovery %.1f%%; "+
		"measurements for <1%% unseen: %d",
		rep.PageStability.Mean, rep.HighPages, rep.MediumPages, rep.LowPages,
		rep.ExpectedDiscovery*100, rep.RequiredMeasurements(0.01))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Stability()
	}
}

// BenchmarkExtensionCoverageCurve measures the repeated-measurement
// accumulation analysis (§8 takeaway 4) on one page.
func BenchmarkExtensionCoverageCurve(b *testing.B) {
	u := webgen.New(webgen.DefaultConfig(benchSeed))
	list := tranco.Generate(20, benchSeed)
	var page *webgen.Page
	for _, e := range list.Entries() {
		s := u.GenerateSite(e)
		// Pick a content-rich page so the curve has something to find.
		if !s.Unreachable && s.Landing.CountResources() > 120 {
			page = s.Landing
			break
		}
	}
	if page == nil {
		b.Fatal("no content-rich page in scan range")
	}
	filter, _ := filterlist.Parse(u.FilterListText())
	runner := &coverage.Runner{Filter: filter, Seed: benchSeed}
	prof, _ := browser.ProfileByName("Sim1")
	curve, err := runner.Accumulate(page, prof, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\ncoverage: first visit %.0f%% of 10-visit population; 95%% after %d visits; distinct %v",
		curve.CoverageAt(1)*100, curve.MeasurementsFor(0.95), curve.Distinct)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Accumulate(page, prof, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCombinedFilterLists quantifies §6's list-stacking
// discussion: adding an EasyPrivacy-style list reclassifies tag managers
// and consent platforms as tracking, shifting the tracking share.
func BenchmarkAblationCombinedFilterLists(b *testing.B) {
	res := benchExperiment(b)
	u := res.Universe()
	base, _ := filterlist.Parse(u.FilterListText())
	privacy, _ := filterlist.Parse(u.PrivacyListText())
	combined := filterlist.Merge(base, privacy)

	profiles := res.Analysis().Dataset().Profiles()
	baseA := res.Analysis()
	combinedA, err := analyzeDataset(res.Analysis().Dataset(), combined, core.Options{Profiles: profiles})
	if err != nil {
		b.Fatal(err)
	}
	ts1 := baseA.TrackingStudy()
	ts2 := combinedA.TrackingStudy()
	b.Logf("\ntracking share: EasyList-only %.1f%% vs +EasyPrivacy %.1f%% — the phenomenon's definition moves with the lists",
		ts1.TrackingShare*100, ts2.TrackingShare*100)
	if ts2.TrackingShare <= ts1.TrackingShare {
		b.Errorf("combined lists must increase tracking share: %.3f vs %.3f",
			ts2.TrackingShare, ts1.TrackingShare)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = combinedA.TrackingStudy()
	}
}

// BenchmarkAblationStatefulCrawl quantifies Appendix C's stateless-vs-
// stateful design choice on cookie observations.
func BenchmarkAblationStatefulCrawl(b *testing.B) {
	u := webgen.New(webgen.DefaultConfig(benchSeed))
	list := tranco.Generate(60, benchSeed)
	sites := list.Entries()[:12]
	profiles := browser.DefaultProfiles()[1:2]

	count := func(stateful bool) (cookies int) {
		ds, _, err := crawler.Run(context.Background(), crawler.Config{
			Universe: u, Sites: sites, MaxPages: 5, Instances: 4,
			Seed: benchSeed, Stateful: stateful, Profiles: profiles,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range ds.Visits() {
			cookies += len(v.Cookies)
		}
		return cookies
	}
	stateless, stateful := count(false), count(true)
	b.Logf("\ncookie observations: stateless %d vs stateful %d — state accumulates across a site's pages",
		stateless, stateful)
	if stateful <= stateless {
		b.Errorf("stateful crawl should observe more cookies: %d vs %d", stateful, stateless)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = count(true)
	}
}

// BenchmarkExtensionStaticDynamic runs the takeaway-3 contrast: static
// HTTP facets (status, content type, size) vs dynamic facets (presence,
// parents, children).
func BenchmarkExtensionStaticDynamic(b *testing.B) {
	res := benchExperiment(b)
	a := res.Analysis()
	r := a.StaticDynamic()
	b.Logf("\nstatic: content-type %.0f%% status %.0f%% size %.0f%% | dynamic: presence %.0f%% parent %.0f%% children %.0f%% | advantage %+.2f",
		r.ContentTypeStable*100, r.StatusStable*100, r.SizeStable*100,
		r.PresenceStable*100, r.ParentStable*100, r.ChildStable*100, r.StaticAdvantage())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.StaticDynamic()
	}
}

// BenchmarkAblationWholeTreeDistance evaluates the comparison method the
// paper rejects (§3.2): whole-tree scores (edge Jaccard, vectorized
// Hamming) versus the node-level analysis. The scores correlate with the
// node-level similarity but cannot attribute differences to nodes.
func BenchmarkAblationWholeTreeDistance(b *testing.B) {
	res := benchExperiment(b)
	a := res.Analysis()
	var edgeSum, hamSum, nodeSum float64
	n := 0
	for _, pa := range a.Pages() {
		edgeSum += pa.Cmp.EdgeSimilarity()
		hamSum += treediff.HammingSimilarity(pa.Trees)
		nodeSum += pa.Cmp.AllNodesSimilarity()
		n++
	}
	b.Logf("\nmean per-page similarity: node-level %.2f vs edge-Jaccard %.2f vs Hamming %.2f (whole-tree scores are systematically lower: every moved edge double-counts)",
		nodeSum/float64(n), edgeSum/float64(n), hamSum/float64(n))
	pages := a.Pages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = treediff.HammingSimilarity(pages[i%len(pages)].Trees)
	}
}

// BenchmarkExtensionTemporalDrift quantifies longitudinal comparability:
// how similar is a page's tree to the one measured k epochs earlier, with
// the same setup? (The drift axis behind §3.1.1's Old-browser motivation.)
func BenchmarkExtensionTemporalDrift(b *testing.B) {
	u := webgen.New(webgen.DefaultConfig(benchSeed))
	filter, _ := filterlist.Parse(u.FilterListText())
	builder := &tree.Builder{Filter: filter}
	list := tranco.Generate(40, benchSeed)
	prof, _ := browser.ProfileByName("Sim1")
	br := browser.New(prof)

	treeAt := func(entry tranco.Entry, epoch int) *tree.Tree {
		site := u.GenerateSiteAt(entry, epoch)
		if site.Unreachable {
			return nil
		}
		for attempt := 0; attempt < 8; attempt++ {
			nonce := webgen.NonceFor(benchSeed, prof.Name+"-drift", site.Landing.URL+string(rune('a'+attempt)))
			if v := br.Visit(site.Landing, nonce); v.Success {
				if t, err := builder.Build(v); err == nil {
					return t
				}
			}
		}
		return nil
	}
	meanSim := func(epoch int) float64 {
		var sum float64
		n := 0
		for i := 1; i <= 20; i++ {
			entry, _ := list.At(i)
			t0, tE := treeAt(entry, 0), treeAt(entry, epoch)
			if t0 == nil || tE == nil {
				continue
			}
			sum += treediff.Compare([]*tree.Tree{t0, tE}).AllNodesSimilarity()
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	e1, e4 := meanSim(1), meanSim(4)
	b.Logf("\ntemporal drift: similarity vs epoch-0 snapshot: e1 %.2f, e4 %.2f (same-setup same-epoch baseline ≈ .7)", e1, e4)
	if e4 > e1 {
		b.Errorf("drift must grow with epoch distance: e1=%.2f e4=%.2f", e1, e4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = meanSim(1)
	}
}

// BenchmarkExtensionEntityStability compares domain-level vs entity-level
// third-party analysis: aggregating domains to their owning organizations
// absorbs intra-organization churn (sister-domain sync partners) and
// stabilizes the measurement.
func BenchmarkExtensionEntityStability(b *testing.B) {
	res := benchExperiment(b)
	a := res.Analysis()
	u := res.Universe()
	rep := a.EntityStability(u.OrganizationOf)
	b.Logf("\nthird-party sets per page: domain-level sim %.3f vs entity-level %.3f; "+
		"%d domains → %d entities; entity view wins on %.0f%% of pages",
		rep.DomainSim.Mean, rep.EntitySim.Mean,
		rep.DistinctDomains, rep.DistinctEntities, rep.AdvantageShare*100)
	if rep.EntitySim.Mean < rep.DomainSim.Mean {
		b.Errorf("entity aggregation must not reduce stability: %.3f vs %.3f",
			rep.EntitySim.Mean, rep.DomainSim.Mean)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.EntityStability(u.OrganizationOf)
	}
}

// BenchmarkExtensionAttributionAccuracy scores the paper's parent
// heuristics against the simulator's ground truth — quantifying §6's
// "branches might be collapsed" concession on real traffic.
func BenchmarkExtensionAttributionAccuracy(b *testing.B) {
	u := webgen.New(webgen.DefaultConfig(benchSeed))
	list := tranco.Generate(30, benchSeed)
	prof, _ := browser.ProfileByName("Sim1")
	br := browser.New(prof)
	builder := &tree.Builder{}

	var total tree.AttributionAccuracy
	var visits []*measurement.Visit
	for i := 1; i <= 20; i++ {
		entry, _ := list.At(i)
		site := u.GenerateSite(entry)
		if site.Unreachable {
			continue
		}
		for _, p := range site.AllPages()[:minInt(3, len(site.AllPages()))] {
			v := br.Visit(p, 9)
			if !v.Success {
				continue
			}
			visits = append(visits, v)
			rep, err := builder.EvaluateAttribution(v)
			if err != nil {
				b.Fatal(err)
			}
			total.Attributable += rep.Attributable
			total.Correct += rep.Correct
			total.RootFallbacks += rep.RootFallbacks
			total.MergeArtifacts += rep.MergeArtifacts
		}
	}
	b.Logf("\nattribution vs ground truth over %d visits: accuracy %.1f%% (%d/%d); root fallbacks %d; merge artifacts %d",
		len(visits), total.Accuracy()*100, total.Correct, total.Attributable,
		total.RootFallbacks, total.MergeArtifacts)
	if total.Accuracy() < 0.9 {
		b.Errorf("attribution accuracy %.2f below 0.9 — heuristics broken", total.Accuracy())
	}
	if total.MergeArtifacts == 0 {
		b.Log("note: no merge artifacts in this sample (the §6 collapse is rare)")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.EvaluateAttribution(visits[i%len(visits)]); err != nil {
			b.Fatal(err)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkExtensionConsensus measures the §4.3 "complete view" strategy:
// how much of a page's union of behaviour survives majority / strict
// consensus across the five profiles.
func BenchmarkExtensionConsensus(b *testing.B) {
	res := benchExperiment(b)
	pages := res.Analysis().Pages()
	var majSum, strictSum float64
	for _, pa := range pages {
		majSum += treediff.ConsensusShare(pa.Trees, 0)
		strictSum += treediff.ConsensusShare(pa.Trees, len(pa.Trees))
	}
	n := float64(len(pages))
	b.Logf("\nconsensus share of the union: majority quorum %.0f%%, all-profiles quorum %.0f%% — "+
		"the reliably measurable skeleton vs the full behaviour",
		majSum/n*100, strictSum/n*100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = treediff.Consensus(pages[i%len(pages)].Trees, 0)
	}
}

// BenchmarkAblationDepthWeighting compares the population-weighted per-depth
// similarity (this repository's documented choice) with equal-weight
// averaging; the paper does not specify its weighting (EXPERIMENTS.md
// deviation 4).
func BenchmarkAblationDepthWeighting(b *testing.B) {
	res := benchExperiment(b)
	pages := res.Analysis().Pages()
	var wSum, uSum float64
	n := 0
	for _, pa := range pages {
		w, dw := pa.Cmp.DepthSimilarity(treediff.DepthFilter{})
		u, du := pa.Cmp.DepthSimilarity(treediff.DepthFilter{Unweighted: true})
		if dw == 0 || du == 0 {
			continue
		}
		wSum += w
		uSum += u
		n++
	}
	b.Logf("\nper-depth similarity: population-weighted %.2f vs equal-weight %.2f "+
		"(sparse deep levels drag the unweighted mean)",
		wSum/float64(n), uSum/float64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = pages[i%len(pages)].Cmp.DepthSimilarity(treediff.DepthFilter{Unweighted: true})
	}
}
