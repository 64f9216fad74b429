package core

import (
	"context"
	"testing"

	"webmeasure/internal/crawler"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/tranco"
	"webmeasure/internal/webgen"
)

// runExperiment runs a small but fully-shaped experiment for tests.
func runExperiment(t testing.TB, nSites, maxPages int, seed int64) *Analysis {
	t.Helper()
	u := webgen.New(webgen.DefaultConfig(seed))
	list := tranco.Generate(nSites*10, seed)
	sample := list.Sample(tranco.ScaledBoundaries(nSites*10), nSites/5, seed)
	ds, _, err := crawler.Run(context.Background(), crawler.Config{
		Universe: u, Sites: sample, MaxPages: maxPages, Instances: 8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	filter, _ := filterlist.Parse(u.FilterListText())
	ranks := map[string]int{}
	for _, e := range sample {
		ranks[e.Site] = e.Rank
	}
	a, err := analyzeDataset(ds, filter, Options{
		Profiles: []string{"Old", "Sim1", "Sim2", "NoAction", "Headless"},
		SiteRank: ranks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestProbe prints the key shape numbers; used to calibrate the generator.
func TestProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("probe only")
	}
	a := runExperiment(t, 50, 8, 42)
	cs := a.CrawlSummary()
	t.Logf("sites=%d pages=%d visits=%d vetted=%d (%.2f)", cs.Sites, cs.Pages, cs.Visits, cs.VettedPages, cs.VettedShare)
	for p, r := range cs.SuccessRate {
		t.Logf("success %s = %.3f", p, r)
	}
	ov := a.TreeOverview()
	t.Logf("nodes avg=%.1f sd=%.1f min=%.0f max=%.0f", ov.Nodes.Mean, ov.Nodes.SD, ov.Nodes.Min, ov.Nodes.Max)
	t.Logf("depth avg=%.2f max=%.0f; breadth avg=%.1f max=%.0f", ov.Depth.Mean, ov.Depth.Max, ov.Breadth.Mean, ov.Breadth.Max)
	t.Logf("presence mean=%.2f inAll=%.2f inOne=%.2f pairVar=%.2f", ov.MeanPresence, ov.ShareInAll, ov.ShareInOne, ov.PairwiseVariation)
	for _, r := range a.DepthSimilarityTable() {
		t.Logf("T3 %-48s %s %.2f sd=%.2f", r.Label, r.Category, r.Sim, r.SD)
	}
	for _, r := range a.ProfileTotals() {
		t.Logf("T5 %-9s nodes=%d tp=%d trk=%d depth=%d breadth=%d", r.Profile, r.Nodes, r.ThirdParty, r.Tracker, r.MaxDepth, r.MaxBreadth)
	}
	pa := a.PartyAppearance()
	t.Logf("party: fpShare=%.2f tpShare=%.2f fp1=%.2f fpDeep=%.2f tp1=%.2f tpDeep=%.2f tpDeepDom=%.2f fpChild=%.2f tpChild=%.2f domains=%d",
		pa.FPShare, pa.TPShare, pa.FPDepth1Mean, pa.FPDeeperMean, pa.TPDepth1Mean, pa.TPDeeperMean, pa.TPDeepDominance, pa.FPChildSim.Mean, pa.TPChildSim.Mean, pa.TPDistinctDomains)
	chain := a.ChainStability()
	t.Logf("chains: all=%.2f deep=%.2f unique=%.2f sameParent=%.2f fp=%.2f tp=%.2f trk=%.2f other=%.2f",
		chain.SameChainShareAll, chain.SameChainShareDeep, chain.UniqueChainShare, chain.SameParentShare,
		chain.SameChainFP, chain.SameChainTP, chain.SameChainTracking, chain.SameChainOther)
	un := a.UniqueNodes()
	t.Logf("unique: share=%.2f tracking=%.2f tp=%.2f depthMean=%.2f d1=%.2f perTree=%.2f",
		un.UniqueShare, un.TrackingShare, un.ThirdPartyShare, un.DepthMean, un.ShareAtDepthOne, un.MeanSharePerTree)
	ck := a.CookieStudy("NoAction")
	t.Logf("cookies: total=%d distinct=%d inAll=%.2f inOne=%.2f meanJ=%.2f vsNone=%.2f attrDiff=%d",
		ck.TotalObservations, ck.DistinctCookies, ck.ShareInAllProfiles, ck.ShareInOneProfile, ck.MeanJaccard.Mean, ck.InteractionVsNone.Mean, ck.AttributeMismatch)
	tr := a.TrackingStudy()
	t.Logf("tracking: share=%.2f sim=%.2f childTr=%.2f childNt=%.2f parTr=%.2f parNt=%.2f kidsTr=%.1f kidsNt=%.1f byTracker=%.2f byFP=%.2f scr=%.2f sub=%.2f main=%.2f",
		tr.TrackingShare, tr.TrackingNodeSim.Mean, tr.TrackingChildSim.Mean, tr.NonTrackingChildSim.Mean,
		tr.TrackingParentSim.Mean, tr.NonTrackingParentSim.Mean, tr.TrackingMeanChildren, tr.NonTrackingMeanChildren,
		tr.TriggeredByTracker, tr.TriggeredByFirstParty, tr.ParentTypeScript, tr.ParentTypeSubframe, tr.ParentTypeMainframe)
	sc := a.CompareSameConfig("Sim1", "Sim2")
	t.Logf("sim1vs2: upper=%.2f deep=%.2f pages=%d", sc.UpperSim, sc.DeepSim, sc.Pages)
	sub := a.SubframeImpact()
	t.Logf("subframes: with=%d without=%d parW=%.2f parWo=%.2f chW=%.2f chWo=%.2f",
		sub.WithSubframes, sub.WithoutSubframes, sub.ParentSimWith, sub.ParentSimWithout, sub.ChildSimWith, sub.ChildSimWithout)
	tests := a.RunTests("Sim1", "NoAction")
	t.Logf("tests: wilcoxon p=%.4g err=%v; mw p=%.4g err=%v; kw p=%.4g err=%v",
		tests.ChildrenVsSimilarity.P, tests.ChildrenVsSimilarityErr,
		tests.InteractionDepth.P, tests.InteractionDepthErr,
		tests.TypeEffect.P, tests.TypeEffectErr)
}
