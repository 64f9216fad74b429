package report

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"webmeasure/internal/browser"
	"webmeasure/internal/core"
	"webmeasure/internal/stats"
)

// Experiment renders one analysis. The first section that needs data
// derives every table and figure once (core.Analysis.Export); every later
// call, from any goroutine, formats that same result.
type Experiment struct {
	Analysis *core.Analysis
	// RankBoundaries for Table 7 (nil skips the bucket table).
	RankBoundaries []int

	once   sync.Once
	export *core.Export
}

// Export returns the derived tables and figures, computing them on first
// use. The result is shared: callers must not modify it.
func (e *Experiment) Export() *core.Export {
	e.once.Do(func() {
		e.export = e.Analysis.Export(core.ExportOptions{RankBoundaries: e.RankBoundaries})
	})
	return e.export
}

// WriteAll renders every table and figure in paper order.
func (e *Experiment) WriteAll(w io.Writer) {
	e.WriteCrawlSummary(w)
	e.WriteTiming(w)
	e.WriteTable1(w)
	e.WriteTable2(w)
	e.WriteFigure1(w)
	e.WriteFigure2(w)
	e.WriteTable3(w)
	e.WriteFigure3(w)
	e.WriteTable4(w)
	e.WriteChainStability(w)
	e.WriteFigure4(w)
	e.WriteFigure5(w)
	e.WriteSubframeImpact(w)
	e.WriteTable5(w)
	e.WriteTable6(w)
	e.WritePairwiseMatrix(w)
	e.WriteSameConfig(w)
	e.WriteStatisticalTests(w)
	e.WriteStaticDynamic(w)
	e.WriteAttribution(w)
	e.WriteStability(w)
	e.WriteCase1UniqueNodes(w)
	e.WriteCase2Cookies(w)
	e.WriteCase3Tracking(w)
	if len(e.RankBoundaries) > 0 {
		e.WriteTable7(w)
	}
	e.WriteFigure7(w)
	e.WriteFigure8(w)
	e.WriteExecutiveSummary(w)
}

// WriteCrawlSummary prints the §4 dataset overview.
func (e *Experiment) WriteCrawlSummary(w io.Writer) {
	cs := e.Export().CrawlSummary
	fmt.Fprintf(w, "== Crawl summary (§4) ==\n")
	fmt.Fprintf(w, "sites crawled: %s   distinct pages: %s   page visits: %s\n",
		Count(cs.Sites), Count(cs.Pages), Count(cs.Visits))
	fmt.Fprintf(w, "pages per site: avg %.1f (min %.0f, max %.0f)\n",
		cs.PagesPerSite.Mean, cs.PagesPerSite.Min, cs.PagesPerSite.Max)
	profiles := e.Analysis.Profiles()
	for _, p := range profiles {
		fmt.Fprintf(w, "  success %-9s %s  (%s visits)\n", p, Pct(cs.SuccessRate[p]), Count(cs.VisitsPerProfile[p]))
	}
	fmt.Fprintf(w, "vetted (all %d profiles succeeded): %s sites, %s pages (%s of pages)\n",
		len(profiles), Count(cs.VettedSites), Count(cs.VettedPages), Pct(cs.VettedShare))
	vet := cs.Vetting
	if vet.Excluded() > 0 {
		fmt.Fprintf(w, "excluded by vetting: %s pages (%s) — %s missing, %s failed, %s degraded, %s unbuildable\n",
			Count(vet.Excluded()), Pct(vet.ExclusionShare()),
			Count(vet.ExcludedMissing), Count(vet.ExcludedFailed),
			Count(vet.ExcludedDegraded), Count(vet.ExcludedBuild))
	}
	fmt.Fprintln(w)
}

// WriteTable1 prints the profile configuration (Table 1).
func (e *Experiment) WriteTable1(w io.Writer) {
	var rows [][]string
	for i, p := range browser.DefaultProfiles() {
		ui, gui := "yes", "yes"
		if !p.UserInteraction {
			ui = "no"
		}
		if !p.GUI {
			gui = "no"
		}
		rows = append(rows, []string{fmt.Sprintf("%d", i+1), p.Name, p.VersionString, ui, gui, p.Country})
	}
	Table(w, "== Table 1: measurement profiles ==",
		[]string{"#", "Name", "Version", "User Interaction", "GUI", "Country"}, rows)
	fmt.Fprintln(w)
}

// WriteTable2 prints the tree overview (Table 2).
func (e *Experiment) WriteTable2(w io.Writer) {
	ov := e.Export().TreeOverview
	rows := [][]string{
		{"nodes", F(ov.Nodes.Mean), F(ov.Nodes.SD), fmt.Sprintf("%.0f", ov.Nodes.Min), fmt.Sprintf("%.0f", ov.Nodes.Max)},
		{"depth", F(ov.Depth.Mean), F(ov.Depth.SD), fmt.Sprintf("%.0f", ov.Depth.Min), fmt.Sprintf("%.0f", ov.Depth.Max)},
		{"breadth", F(ov.Breadth.Mean), F(ov.Breadth.SD), fmt.Sprintf("%.0f", ov.Breadth.Min), fmt.Sprintf("%.0f", ov.Breadth.Max)},
	}
	Table(w, "== Table 2: overview of the measured trees ==",
		[]string{"Tree", "avg.", "SD", "min", "max"}, rows)
	fmt.Fprintf(w, "node present in X profiles (avg): %.1f (SD %.1f)\n", ov.MeanPresence, ov.PresenceSD)
	fmt.Fprintf(w, "present in all profiles: %s    present in one profile: %s\n",
		Pct(ov.ShareInAll), Pct(ov.ShareInOne))
	fmt.Fprintf(w, "pairwise data variation between two profiles: %s\n\n", Pct(ov.PairwiseVariation))
}

// WriteFigure1 prints the depth×breadth distribution (Fig. 1) as a coarse
// text heatmap.
func (e *Experiment) WriteFigure1(w io.Writer) {
	h := e.Export().DepthBreadth
	fmt.Fprintf(w, "== Figure 1: tree depth x breadth distribution (%d trees) ==\n", h.Total())
	// Bucket breadth logarithmically for readability.
	buckets := []int{1, 5, 10, 20, 40, 80, 160, 320, 1 << 30}
	labels := []string{"1-5", "6-10", "11-20", "21-40", "41-80", "81-160", "161-320", ">320"}
	maxD := h.MaxY()
	for d := 0; d <= maxD; d++ {
		counts := make([]int, len(labels))
		for x := 0; x <= h.MaxX(); x++ {
			c := h.Count(x, d)
			if c == 0 {
				continue
			}
			for bi := 1; bi < len(buckets); bi++ {
				if x <= buckets[bi] {
					counts[bi-1] += c
					break
				}
			}
		}
		fmt.Fprintf(w, "depth %2d |", d)
		for _, c := range counts {
			fmt.Fprintf(w, " %5d", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "breadth   ")
	for _, l := range labels {
		fmt.Fprintf(w, " %5s", l)
	}
	fmt.Fprint(w, "\n\n")
}

// WriteFigure2 prints the similarity distributions (Fig. 2).
func (e *Experiment) WriteFigure2(w io.Writer) {
	d := e.Export().SimDist
	fmt.Fprintf(w, "== Figure 2: distribution of node similarities ==\n")
	cf, pf := d.Children.RelativeFrequencies(), d.Parents.RelativeFrequencies()
	max := 0.0
	for i := range cf {
		if cf[i] > max {
			max = cf[i]
		}
		if pf[i] > max {
			max = pf[i]
		}
	}
	for i := range cf {
		fmt.Fprintf(w, "%.1f-%.1f  children %.2f %-40s  parent %.2f %s\n",
			float64(i)/10, float64(i+1)/10, cf[i], Bar(cf[i], max), pf[i], Bar(pf[i], max))
	}
	fmt.Fprintln(w)
}

// WriteTable3 prints the per-depth similarities (Table 3).
func (e *Experiment) WriteTable3(w io.Writer) {
	var rows [][]string
	for _, r := range e.Export().DepthSim {
		rows = append(rows, []string{r.Label, string(r.Category), F(r.Sim), F(r.SD), F(r.Max), F(r.Min)})
	}
	Table(w, "== Table 3: similarity of nodes at different depths ==",
		[]string{"Test", "cat.", "sim.", "SD", "max", "min"}, rows)
	fmt.Fprintln(w)
}

// WriteFigure3 prints the node-type volume per depth (Fig. 3).
func (e *Experiment) WriteFigure3(w io.Writer) {
	var rows [][]string
	for _, r := range e.Export().NodeTypeVolume {
		rows = append(rows, []string{
			r.Depth, Pct(r.FirstParty), Pct(r.ThirdParty), Pct(r.Tracking), Pct(r.NonTracking), Count(r.Nodes),
		})
	}
	Table(w, "== Figure 3: volume of node types per depth ==",
		[]string{"Depth", "First party", "Third party", "Tracking", "Non-tracking", "Nodes"}, rows)
	fmt.Fprintln(w)
}

// WriteTable4 prints the resource-type chain stability (Tables 4a/4b).
func (e *Experiment) WriteTable4(w io.Writer) {
	rows := e.Export().ResourceChains
	var a [][]string
	for i, r := range rows {
		if i >= 5 {
			break
		}
		a = append(a, []string{r.Type.String(), Pct(r.SameChainShare), Count(r.N)})
	}
	Table(w, "== Table 4a: resource types most often loaded by the same dependency chain ==",
		[]string{"Node type", "Same chains", "N"}, a)
	bySim := append([]core.ResourceChainRow(nil), rows...)
	sort.Slice(bySim, func(i, j int) bool { return bySim[i].ParentSim < bySim[j].ParentSim })
	var b [][]string
	for i, r := range bySim {
		if i >= 5 {
			break
		}
		b = append(b, []string{r.Type.String(), F(r.ParentSim), Count(r.N)})
	}
	Table(w, "== Table 4b: resource types with the lowest similarity ==",
		[]string{"Node type", "Similarity", "N"}, b)
	fmt.Fprintln(w)
}

// WriteChainStability prints the §4.2 headline chain numbers.
func (e *Experiment) WriteChainStability(w io.Writer) {
	c := e.Export().ChainStability
	fmt.Fprintf(w, "== §4.2 dependency-chain stability (nodes in all trees) ==\n")
	fmt.Fprintf(w, "same chains (all):  %s    same chains (depth ≥2): %s    unique chains: %s\n",
		Pct(c.SameChainShareAll), Pct(c.SameChainShareDeep), Pct(c.UniqueChainShare))
	fmt.Fprintf(w, "same parent (same depth, depth ≥2): %s\n", Pct(c.SameParentShare))
	fmt.Fprintf(w, "same chain by context: first-party %s, third-party %s, tracking %s, non-tracking %s\n\n",
		Pct(c.SameChainFP), Pct(c.SameChainTP), Pct(c.SameChainTracking), Pct(c.SameChainOther))
}

// WriteFigure4 prints similarity by depth (Fig. 4).
func (e *Experiment) WriteFigure4(w io.Writer) {
	var rows [][]string
	for _, r := range e.Export().SimByDepth {
		rows = append(rows, []string{r.Depth, F(r.ChildSim), F(r.ParentSim), Count(r.Nodes)})
	}
	Table(w, "== Figure 4: similarity of children and parents by depth ==",
		[]string{"Depth", "Children", "Parent", "Nodes"}, rows)
	fmt.Fprintln(w)
}

// WriteFigure5 prints the resource-type shares by page similarity (Fig. 5).
func (e *Experiment) WriteFigure5(w io.Writer) {
	for _, f := range e.Export().TypeShares {
		fmt.Fprintf(w, "== Figure 5 (%s): resource-type share by average page similarity ==\n", f.Kind)
		headers := []string{"Similarity bin"}
		for _, s := range f.Series {
			headers = append(headers, s.Type.String())
		}
		headers = append(headers, "pages")
		var rows [][]string
		for b := 0; b < len(f.BinEdges)-1; b++ {
			row := []string{fmt.Sprintf("%.2f-%.2f", f.BinEdges[b], f.BinEdges[b+1])}
			for _, s := range f.Series {
				row = append(row, Pct(s.Shares[b]))
			}
			row = append(row, Count(f.Pages[b]))
			rows = append(rows, row)
		}
		Table(w, "", headers, rows)
		fmt.Fprintln(w)
	}
}

// WriteSubframeImpact prints the §4.2 subframe effect.
func (e *Experiment) WriteSubframeImpact(w io.Writer) {
	s := e.Export().SubframeImpact
	fmt.Fprintf(w, "== §4.2 subframe impact ==\n")
	fmt.Fprintf(w, "pages with subframes: %s (parent sim %s, child sim %s)\n",
		Count(s.WithSubframes), F(s.ParentSimWith), F(s.ChildSimWith))
	fmt.Fprintf(w, "pages without:        %s (parent sim %s, child sim %s)\n\n",
		Count(s.WithoutSubframes), F(s.ParentSimWithout), F(s.ChildSimWithout))
}

// WriteTable5 prints the per-profile totals (Table 5).
func (e *Experiment) WriteTable5(w io.Writer) {
	var rows [][]string
	for i, r := range e.Export().ProfileTotals {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1), r.Profile, Count(r.Nodes), Count(r.ThirdParty),
			Count(r.Tracker), fmt.Sprintf("%d", r.MaxDepth), Count(r.MaxBreadth),
		})
	}
	Table(w, "== Table 5: implications depending on different profiles ==",
		[]string{"#", "Name", "Nodes", "Third party", "Tracker", "Depth", "Breadth"}, rows)
	fmt.Fprintln(w)
}

// WriteTable6 prints the profile differences vs the reference (Table 6).
func (e *Experiment) WriteTable6(w io.Writer) {
	rows := e.Export().ProfilePairs
	headers := []string{"Metric"}
	for _, r := range rows {
		headers = append(headers, r.Other)
	}
	get := func(f func(core.ProfilePairRow) float64, pct bool) []string {
		out := make([]string, 0, len(rows))
		for _, r := range rows {
			if pct {
				out = append(out, Pct(f(r)))
			} else {
				out = append(out, F(f(r)))
			}
		}
		return out
	}
	var body [][]string
	add := func(label string, f func(core.ProfilePairRow) float64, pct bool) {
		body = append(body, append([]string{label}, get(f, pct)...))
	}
	add("FP children: perfect similarity", func(r core.ProfilePairRow) float64 { return r.FPChildrenPerfect }, true)
	add("FP children: no similarity", func(r core.ProfilePairRow) float64 { return r.FPChildrenNone }, true)
	add("TP children: perfect similarity", func(r core.ProfilePairRow) float64 { return r.TPChildrenPerfect }, true)
	add("TP children: no similarity", func(r core.ProfilePairRow) float64 { return r.TPChildrenNone }, true)
	add("FP parent: perfect similarity", func(r core.ProfilePairRow) float64 { return r.FPParentPerfect }, true)
	add("FP parent: no similarity", func(r core.ProfilePairRow) float64 { return r.FPParentNone }, true)
	add("TP parent: perfect similarity", func(r core.ProfilePairRow) float64 { return r.TPParentPerfect }, true)
	add("TP parent: no similarity", func(r core.ProfilePairRow) float64 { return r.TPParentNone }, true)
	add("parent similarity (mean, depth>=2)", func(r core.ProfilePairRow) float64 { return r.MeanParentSim }, false)
	add("child similarity (mean, >=1 child)", func(r core.ProfilePairRow) float64 { return r.MeanChildSim }, false)
	Table(w, "== Table 6: profile differences compared to "+core.ReferenceProfile+" ==", headers, body)
	fmt.Fprintln(w)
}

// WriteSameConfig prints the identical-configuration comparison (§4.4).
func (e *Experiment) WriteSameConfig(w io.Writer) {
	sc := e.Export().SameConfig
	fmt.Fprintf(w, "== §4.4 identical configuration (%s vs %s, %d pages) ==\n",
		core.ReferenceProfile, core.SameConfigProfile, sc.Pages)
	fmt.Fprintf(w, "upper levels (≤5): %s    deeper levels: %s\n\n", F(sc.UpperSim), F(sc.DeepSim))
}

// WriteStatisticalTests prints the three §3.1 tests.
func (e *Experiment) WriteStatisticalTests(w io.Writer) {
	res := e.Export().RawTests
	fmt.Fprintf(w, "== Statistical tests (α = .05) ==\n")
	print := func(name string, r stats.TestResult, err error) {
		if err != nil {
			fmt.Fprintf(w, "%-46s error: %v\n", name, err)
			return
		}
		verdict := "not significant"
		if r.Significant() {
			verdict = "significant"
		}
		fmt.Fprintf(w, "%-46s stat=%.2f p=%.3g n=%d → %s\n", name, r.Statistic, r.P, r.N, verdict)
	}
	print("Wilcoxon: children count vs child similarity", res.ChildrenVsSimilarity, res.ChildrenVsSimilarityErr)
	print("Mann-Whitney U: interaction vs node depth", res.InteractionDepth, res.InteractionDepthErr)
	print("Kruskal-Wallis: resource type vs similarity", res.TypeEffect, res.TypeEffectErr)
	fmt.Fprintln(w)
}

// WriteStaticDynamic prints the takeaway-3 contrast of static HTTP facets
// against dynamic content facets.
func (e *Experiment) WriteStaticDynamic(w io.Writer) {
	r := e.Export().StaticDynamic
	fmt.Fprintf(w, "== Static vs dynamic phenomena (takeaway 3, %s nodes) ==\n", Count(r.NodesCompared))
	fmt.Fprintf(w, "static facets:  content type %s   status %s   body size (±25%%) %s\n",
		Pct(r.ContentTypeStable), Pct(r.StatusStable), Pct(r.SizeStable))
	fmt.Fprintf(w, "dynamic facets: presence %s   parent %s   children %s\n",
		Pct(r.PresenceStable), Pct(r.ParentStable), Pct(r.ChildStable))
	fmt.Fprintf(w, "static advantage: %+.2f — header-level studies replicate; content-level studies need repetitions\n\n",
		r.StaticAdvantage())
}

// WriteStability prints the experiment-level fluctuation metric (takeaway 1).
func (e *Experiment) WriteStability(w io.Writer) {
	r := e.Export().Stability
	fmt.Fprintf(w, "== Measurement stability metric (takeaway 1) ==\n")
	fmt.Fprintf(w, "page stability: mean %.2f (SD %.2f) — %s high, %s medium, %s low\n",
		r.PageStability.Mean, r.PageStability.SD,
		Count(r.HighPages), Count(r.MediumPages), Count(r.LowPages))
	fmt.Fprintf(w, "expected new-node mass from one more measurement: %s\n", Pct(r.ExpectedDiscovery))
	fmt.Fprintf(w, "measurements to push unseen mass below 1%%: %d\n", r.RequiredMeasurements(0.01))
	fmt.Fprintf(w, "stability by population (presence of 1.0 = always observed):\n")
	for _, c := range r.ByCategory {
		fmt.Fprintf(w, "  %-22s presence %.2f  child sim %.2f  (%s nodes)\n",
			c.Category, c.MeanPresence, c.ChildSim, Count(c.Nodes))
	}
	fmt.Fprintln(w)
}

// WriteCase1UniqueNodes prints the §5.1 case study.
func (e *Experiment) WriteCase1UniqueNodes(w io.Writer) {
	u := e.Export().UniqueNodes
	fmt.Fprintf(w, "== Case study §5.1: unique nodes ==\n")
	fmt.Fprintf(w, "unique nodes: %s of %s (%s)\n", Count(u.UniqueNodes), Count(u.TotalNodes), Pct(u.UniqueShare))
	fmt.Fprintf(w, "tracking: %s   third-party: %s   mean depth: %.1f (SD %.1f)   at depth one: %s\n",
		Pct(u.TrackingShare), Pct(u.ThirdPartyShare), u.DepthMean, u.DepthSD, Pct(u.ShareAtDepthOne))
	fmt.Fprintf(w, "mean share of unique nodes per tree: %s\n", Pct(u.MeanSharePerTree))
	fmt.Fprintf(w, "top resource types:")
	for i, ts := range u.TypeShares {
		if i >= 4 {
			break
		}
		fmt.Fprintf(w, " %s %s", ts.Type, Pct(ts.Share))
	}
	fmt.Fprintf(w, "\ntop hosting sites:")
	for i, hs := range u.TopHosts {
		if i >= 3 {
			break
		}
		fmt.Fprintf(w, " %s (%s)", hs.Host, Pct(hs.Share))
	}
	fmt.Fprint(w, "\n\n")
}

// WriteCase2Cookies prints the §5.2 case study.
func (e *Experiment) WriteCase2Cookies(w io.Writer) {
	c := e.Export().CookieStudy
	fmt.Fprintf(w, "== Case study §5.2: cookies ==\n")
	fmt.Fprintf(w, "observations: %s   distinct (name,domain,path): %s\n",
		Count(c.TotalObservations), Count(c.DistinctCookies))
	var profs []string
	for p := range c.PerProfile {
		profs = append(profs, p)
	}
	sort.Strings(profs)
	for _, p := range profs {
		fmt.Fprintf(w, "  %-9s %s cookies\n", p, Count(c.PerProfile[p]))
	}
	fmt.Fprintf(w, "in all profiles: %s   in one profile: %s\n", Pct(c.ShareInAllProfiles), Pct(c.ShareInOneProfile))
	fmt.Fprintf(w, "per-page similarity: %.2f (SD %.2f)   vs %s only: %.2f\n",
		c.MeanJaccard.Mean, c.MeanJaccard.SD, core.NoActionProfile, c.InteractionVsNone.Mean)
	fmt.Fprintf(w, "cookies with differing security attributes: %s\n\n", Count(c.AttributeMismatch))
}

// WriteCase3Tracking prints the §5.3 case study.
func (e *Experiment) WriteCase3Tracking(w io.Writer) {
	tr := e.Export().TrackingStudy
	fmt.Fprintf(w, "== Case study §5.3: tracking requests ==\n")
	fmt.Fprintf(w, "tracking nodes: %s of all nodes   per-page tracking-set similarity: %.2f (SD %.2f)\n",
		Pct(tr.TrackingShare), tr.TrackingNodeSim.Mean, tr.TrackingNodeSim.SD)
	fmt.Fprintf(w, "children similarity: tracking %.2f vs non-tracking %.2f\n",
		tr.TrackingChildSim.Mean, tr.NonTrackingChildSim.Mean)
	fmt.Fprintf(w, "parent similarity:   tracking %.2f vs non-tracking %.2f\n",
		tr.TrackingParentSim.Mean, tr.NonTrackingParentSim.Mean)
	fmt.Fprintf(w, "mean children: tracking %.1f vs non-tracking %.1f\n",
		tr.TrackingMeanChildren, tr.NonTrackingMeanChildren)
	if len(tr.DepthShares) == 5 {
		fmt.Fprintf(w, "depth distribution: d1 %s, d2 %s, d3 %s, d4 %s, deeper %s\n",
			Pct(tr.DepthShares[0]), Pct(tr.DepthShares[1]), Pct(tr.DepthShares[2]),
			Pct(tr.DepthShares[3]), Pct(tr.DepthShares[4]))
	}
	fmt.Fprintf(w, "triggered by trackers: %s (of those, %s in third-party context)\n",
		Pct(tr.TriggeredByTracker), Pct(tr.TrackerParentThirdParty))
	fmt.Fprintf(w, "parent context: first-party %s; parent types: script %s, subframe %s, mainframe %s\n\n",
		Pct(tr.TriggeredByFirstParty), Pct(tr.ParentTypeScript), Pct(tr.ParentTypeSubframe), Pct(tr.ParentTypeMainframe))
}

// WriteTable7 prints the rank-bucket analysis (Table 7, Appendix F).
func (e *Experiment) WriteTable7(w io.Writer) {
	x := e.Export()
	var res core.RankBucketResult
	if x.RankBuckets != nil {
		res = *x.RankBuckets
	}
	var rows [][]string
	for i, r := range res.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1), r.Bucket, fmt.Sprintf("%.0f", r.MeanNodes),
			F(r.ChildSim), F(r.ParentSim), Count(r.Pages),
		})
	}
	Table(w, "== Table 7: tree size and similarity per rank bucket (Appendix F) ==",
		[]string{"#", "Bucket", "mean nodes", "child sim", "parent sim", "pages"}, rows)
	if x.RankBucketsErr == nil {
		fmt.Fprintf(w, "Kruskal-Wallis nodes: H=%.2f p=%.3g; similarity: H=%.2f p=%.3g; ε²=%.4f\n",
			res.NodesTest.Statistic, res.NodesTest.P, res.SimTest.Statistic, res.SimTest.P, res.Epsilon2)
	} else {
		fmt.Fprintf(w, "Kruskal-Wallis unavailable: %v\n", x.RankBucketsErr)
	}
	fmt.Fprintln(w)
}

// WriteFigure7 prints the per-type per-depth similarities (Fig. 7).
func (e *Experiment) WriteFigure7(w io.Writer) {
	var body [][]string
	for _, r := range e.Export().TypeDepth {
		body = append(body, []string{
			r.Type.String(), fmt.Sprintf("%d", r.Depth), F(r.ChildSim), F(r.ParentSim), Count(r.Nodes),
		})
	}
	Table(w, "== Figure 7: similarity per resource type per depth (Appendix G) ==",
		[]string{"Type", "Depth", "Children", "Parent", "Nodes"}, body)
	fmt.Fprintln(w)
}

// WriteFigure8 prints children per depth (Fig. 8, Appendix E).
func (e *Experiment) WriteFigure8(w io.Writer) {
	var rows [][]string
	for _, r := range e.Export().ChildrenByDepth {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Depth), F(r.Mean), F(r.Median), F(r.Q1), F(r.Q3),
			fmt.Sprintf("%.0f", r.Max), Count(r.Nodes),
		})
	}
	Table(w, "== Figure 8: number of children per depth (nodes with ≥1 child, Appendix E) ==",
		[]string{"Depth", "mean", "median", "q1", "q3", "max", "nodes"}, rows)
	fmt.Fprintln(w)
}

// WritePairwiseMatrix prints the full profile×profile similarity matrix.
func (e *Experiment) WritePairwiseMatrix(w io.Writer) {
	x := e.Export()
	names, m := x.PairwiseProfiles, x.Pairwise
	headers := append([]string{"Profile"}, names...)
	var rows [][]string
	for i, name := range names {
		row := []string{name}
		for j := range names {
			row = append(row, F(m[i][j]))
		}
		rows = append(rows, row)
	}
	Table(w, "== Profile-pair node-set similarity matrix ==", headers, rows)
	fmt.Fprintln(w)
}

// WriteTiming prints the Appendix C synchronization statistics.
func (e *Experiment) WriteTiming(w io.Writer) {
	rep := e.Export().Timing
	fmt.Fprintf(w, "== Visit timing (Appendix C) ==\n")
	fmt.Fprintf(w, "per-page start deviation between profiles: avg %.0fs (SD %.0fs, max %.0fs)\n",
		rep.StartDeviation.Mean, rep.StartDeviation.SD, rep.StartDeviation.Max)
	fmt.Fprintf(w, "page-load duration: avg %.0fms (max %.0fms); visits hitting the timeout: %s\n\n",
		rep.Duration.Mean, rep.Duration.Max, Pct(rep.TimeoutShare))
}

// WriteAttribution prints the ground-truth attribution evaluation (only
// meaningful on simulated datasets; real captures carry no ground truth).
func (e *Experiment) WriteAttribution(w io.Writer) {
	r := e.Export().Attribution
	if r.Visits == 0 {
		return
	}
	fmt.Fprintf(w, "== Attribution vs ground truth (§3.2 heuristics, §6 limitation) ==\n")
	fmt.Fprintf(w, "visits evaluated: %s   attributable requests: %s\n", Count(r.Visits), Count(r.Attributable))
	fmt.Fprintf(w, "correct parent: %s   root fallbacks: %s   URL-merge artifacts: %s\n\n",
		Pct(r.Accuracy()), Count(r.RootFallbacks), Count(r.MergeArtifacts))
}

// WriteExecutiveSummary prints the paper's four takeaways (§8) with this
// run's measured numbers attached — the one-pager a reader should leave
// with.
func (e *Experiment) WriteExecutiveSummary(w io.Writer) {
	x := e.Export()
	fmt.Fprintf(w, "== Takeaways (§8), with this run's numbers ==\n")
	fmt.Fprintf(w, "1. Assess variance: a node appears in %.1f of %d profiles on average;\n",
		x.TreeOverview.MeanPresence, len(e.Analysis.Profiles()))
	fmt.Fprintf(w, "   one more measurement would surface ~%s new node mass —\n", Pct(x.Stability.ExpectedDiscovery))
	fmt.Fprintf(w, "   plan for %d repetitions to push the unseen share below 1%%.\n",
		x.Stability.RequiredMeasurements(0.01))
	fmt.Fprintf(w, "2. Loading dependencies fluctuate: only %s of nodes keep the same\n",
		Pct(x.ChainStability.SameChainShareDeep))
	fmt.Fprintf(w, "   dependency chain beyond depth one; conclusions built on chains are fragile.\n")
	fmt.Fprintf(w, "3. Static vs dynamic: HTTP-level facets are %s–%s stable, content\n",
		Pct(x.StaticDynamic.SizeStable), Pct(x.StaticDynamic.ContentTypeStable))
	fmt.Fprintf(w, "   presence only %s — know which side your phenomenon lives on.\n",
		Pct(x.StaticDynamic.PresenceStable))
	fmt.Fprintf(w, "4. Repeat with different profiles: even the identical %s/%s pair agrees\n",
		core.ReferenceProfile, core.SameConfigProfile)
	fmt.Fprintf(w, "   only %s on upper tree levels (%s deeper).\n\n",
		F(x.SameConfig.UpperSim), F(x.SameConfig.DeepSim))
}
