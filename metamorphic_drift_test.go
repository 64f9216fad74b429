package webmeasure

// Metamorphic relations of the cross-epoch comparison. Comparing epoch a
// with epoch b asks the same question as comparing b with a: the
// similarities are Jaccard indices and depth-weighted means of them, all
// symmetric in their two arguments (§3.2), so swapping the epochs must
// leave every similarity bit-identical, swap every "new" list with its
// "vanished" list and negate every drift. An epoch compared with itself
// must score 1 everywhere.

import (
	"context"
	"reflect"
	"testing"

	"webmeasure/internal/drift"
)

func TestDriftDiffSymmetric(t *testing.T) {
	moved := false
	for _, seed := range []int64{7, 23} {
		var baselines []*drift.Baseline
		for epoch := 0; epoch <= 3; epoch++ {
			res, err := Run(context.Background(), Config{Seed: seed, Sites: 6, PagesPerSite: 3, Epoch: epoch})
			if err != nil {
				t.Fatal(err)
			}
			baselines = append(baselines, res.DriftBaseline())
		}
		for i, a := range baselines {
			self, err := drift.Diff(a, a)
			if err != nil {
				t.Fatal(err)
			}
			checkSelfDiff(t, seed, i, self)
			for j := i + 1; j < len(baselines); j++ {
				ab, err := drift.Diff(a, baselines[j])
				if err != nil {
					t.Fatal(err)
				}
				ba, err := drift.Diff(baselines[j], a)
				if err != nil {
					t.Fatal(err)
				}
				checkSwapped(t, seed, i, j, ab, ba)
				moved = moved || (ab.CommonPages > 0 && ab.TreeSimilarity < 1 && ab.EdgeSimilarity < 1)
			}
		}
	}
	if !moved {
		t.Fatal("no epoch pair drifted over common pages: the relations were not exercised")
	}
}

// checkSelfDiff asserts an epoch compared with itself shows no drift.
func checkSelfDiff(t *testing.T, seed int64, epoch int, d *drift.Delta) {
	t.Helper()
	if d.TreeSimilarity != 1 || d.EdgeSimilarity != 1 || d.ThirdPartyJaccard != 1 {
		t.Errorf("seed %d epoch %d self-diff: tree %v, edge %v, third-party %v; want 1",
			seed, epoch, d.TreeSimilarity, d.EdgeSimilarity, d.ThirdPartyJaccard)
	}
	if d.CommonPages != d.VettedPagesFrom || d.CommonPages == 0 {
		t.Errorf("seed %d epoch %d self-diff: %d common pages of %d vetted", seed, epoch, d.CommonPages, d.VettedPagesFrom)
	}
	for _, drifted := range []float64{d.TrackingShareDrift, d.MeanNodesDrift, d.MeanDepthDrift,
		d.ChildSimDrift, d.ParentSimDrift, d.DepthSimilarityDrift} {
		if drifted != 0 {
			t.Errorf("seed %d epoch %d self-diff: drift %v, want 0", seed, epoch, drifted)
		}
	}
	if n := len(d.NewThirdParties) + len(d.VanishedThirdParties) + len(d.NewTrackers) +
		len(d.VanishedTrackers) + len(d.NewSites) + len(d.VanishedSites); n != 0 {
		t.Errorf("seed %d epoch %d self-diff: %d new or vanished entries", seed, epoch, n)
	}
	for _, sd := range d.SiteDeltas {
		if sd.TreeSimilarity != 1 || sd.EdgeSimilarity != 1 || sd.ThirdPartyJaccard != 1 {
			t.Errorf("seed %d epoch %d self-diff, site %s: tree %v, edge %v, third-party %v; want 1",
				seed, epoch, sd.Site, sd.TreeSimilarity, sd.EdgeSimilarity, sd.ThirdPartyJaccard)
		}
	}
}

// checkSwapped asserts ba is ab with its two epochs swapped.
func checkSwapped(t *testing.T, seed int64, i, j int, ab, ba *drift.Delta) {
	t.Helper()
	fail := func(what string, x, y any) {
		t.Helper()
		t.Errorf("seed %d epochs %d↔%d: %s: %v vs %v", seed, i, j, what, x, y)
	}
	same := func(what string, x, y float64) {
		t.Helper()
		if x != y {
			fail(what, x, y)
		}
	}
	swapped := func(what string, newAB, vanishedAB, newBA, vanishedBA []string) {
		t.Helper()
		if !reflect.DeepEqual(newAB, vanishedBA) || !reflect.DeepEqual(vanishedAB, newBA) {
			fail(what+" new/vanished not swapped", [][]string{newAB, vanishedAB}, [][]string{newBA, vanishedBA})
		}
	}
	negated := func(what string, x, y float64) {
		t.Helper()
		if x != -y {
			fail(what+" not negated", x, y)
		}
	}

	same("tree similarity", ab.TreeSimilarity, ba.TreeSimilarity)
	same("edge similarity", ab.EdgeSimilarity, ba.EdgeSimilarity)
	same("third-party jaccard", ab.ThirdPartyJaccard, ba.ThirdPartyJaccard)
	if ab.CommonPages != ba.CommonPages {
		fail("common pages", ab.CommonPages, ba.CommonPages)
	}
	if ab.FromEpoch != ba.ToEpoch || ab.ToEpoch != ba.FromEpoch {
		fail("epochs", [2]int{ab.FromEpoch, ab.ToEpoch}, [2]int{ba.FromEpoch, ba.ToEpoch})
	}
	if ab.VettedPagesFrom != ba.VettedPagesTo || ab.VettedPagesTo != ba.VettedPagesFrom {
		fail("vetted pages", [2]int{ab.VettedPagesFrom, ab.VettedPagesTo}, [2]int{ba.VettedPagesFrom, ba.VettedPagesTo})
	}
	same("tracking share from", ab.TrackingShareFrom, ba.TrackingShareTo)
	same("tracking share to", ab.TrackingShareTo, ba.TrackingShareFrom)
	swapped("third parties", ab.NewThirdParties, ab.VanishedThirdParties, ba.NewThirdParties, ba.VanishedThirdParties)
	swapped("trackers", ab.NewTrackers, ab.VanishedTrackers, ba.NewTrackers, ba.VanishedTrackers)
	swapped("sites", ab.NewSites, ab.VanishedSites, ba.NewSites, ba.VanishedSites)
	negated("tracking share drift", ab.TrackingShareDrift, ba.TrackingShareDrift)
	negated("mean nodes drift", ab.MeanNodesDrift, ba.MeanNodesDrift)
	negated("mean depth drift", ab.MeanDepthDrift, ba.MeanDepthDrift)
	negated("child sim drift", ab.ChildSimDrift, ba.ChildSimDrift)
	negated("parent sim drift", ab.ParentSimDrift, ba.ParentSimDrift)
	negated("depth similarity drift", ab.DepthSimilarityDrift, ba.DepthSimilarityDrift)

	if len(ab.SiteDeltas) != len(ba.SiteDeltas) {
		fail("common sites", len(ab.SiteDeltas), len(ba.SiteDeltas))
		return
	}
	for k, x := range ab.SiteDeltas {
		y := ba.SiteDeltas[k]
		if x.Site != y.Site || x.CommonPages != y.CommonPages {
			fail("site", [2]any{x.Site, x.CommonPages}, [2]any{y.Site, y.CommonPages})
			continue
		}
		same(x.Site+" tree similarity", x.TreeSimilarity, y.TreeSimilarity)
		same(x.Site+" edge similarity", x.EdgeSimilarity, y.EdgeSimilarity)
		same(x.Site+" third-party jaccard", x.ThirdPartyJaccard, y.ThirdPartyJaccard)
		swapped(x.Site+" third parties", x.NewThirdParties, x.VanishedThirdParties, y.NewThirdParties, y.VanishedThirdParties)
		swapped(x.Site+" trackers", x.NewTrackers, x.VanishedTrackers, y.NewTrackers, y.VanishedTrackers)
	}
}
