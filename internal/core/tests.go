package core

import (
	"webmeasure/internal/measurement"
	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
	"webmeasure/internal/urlutil"
)

// hostSite returns the eTLD+1 of a node key.
func hostSite(key string) string { return urlutil.Site(key) }

// StatisticalTests bundles the significance tests the evaluation reports.
type StatisticalTests struct {
	// ChildrenVsSimilarity is §4.1's Wilcoxon signed-rank test between the
	// number of children and their similarity: per page, the mean child
	// similarity of many-children nodes is paired with that of
	// few-children nodes ("nodes that have many children often load
	// different children").
	ChildrenVsSimilarity    stats.TestResult
	ChildrenVsSimilarityErr error

	// InteractionDepth is §4.4's Mann-Whitney U test of node depths with
	// mimicked interaction (Sim1) vs without (NoAction).
	InteractionDepth    stats.TestResult
	InteractionDepthErr error

	// TypeEffect is §4.2's Kruskal-Wallis test that the resource type
	// affects child similarity.
	TypeEffect    stats.TestResult
	TypeEffectErr error
}

// RunTests executes the three tests. interactionProfile/noActionProfile
// name the profiles compared by the Mann-Whitney test.
func (a *Analysis) RunTests(interactionProfile, noActionProfile string) StatisticalTests {
	var out StatisticalTests

	// Wilcoxon: per page, pair the similarity of many-children vs
	// few-children nodes.
	var many, few []float64
	for _, pa := range a.pages {
		var m, f []float64
		for _, ni := range pa.Cmp.Nodes[1:] {
			if !ni.HasChildAnywhere || ni.Presence < 2 {
				continue
			}
			if ni.MaxChildren >= 3 {
				m = append(m, ni.ChildSim)
			} else {
				f = append(f, ni.ChildSim)
			}
		}
		if len(m) > 0 && len(f) > 0 {
			many = append(many, stats.Mean(m))
			few = append(few, stats.Mean(f))
		}
	}
	out.ChildrenVsSimilarity, out.ChildrenVsSimilarityErr = stats.WilcoxonSignedRank(many, few)

	// Mann-Whitney: node depths under interaction vs no interaction.
	if a.profileIndex(interactionProfile) >= 0 && a.profileIndex(noActionProfile) >= 0 {
		var with, without []float64
		for _, pa := range a.pages {
			ti, tn := pa.TreeFor(interactionProfile), pa.TreeFor(noActionProfile)
			if ti == nil || tn == nil {
				continue
			}
			for _, n := range ti.Nodes() {
				if !n.IsRoot() {
					with = append(with, float64(n.Depth))
				}
			}
			for _, n := range tn.Nodes() {
				if !n.IsRoot() {
					without = append(without, float64(n.Depth))
				}
			}
		}
		out.InteractionDepth, out.InteractionDepthErr = stats.MannWhitneyU(with, without)
	} else {
		out.InteractionDepthErr = stats.ErrInsufficientData
	}

	// Kruskal-Wallis: child similarity grouped by resource type. Groups
	// are assembled in declaration order so the statistic is bit-stable.
	groups := map[measurement.ResourceType][]float64{}
	a.eachNonRootNode(func(pa *PageAnalysis, info *treediff.NodeInfo) {
		if info.HasChildAnywhere && info.Presence >= 2 {
			groups[info.Type] = append(groups[info.Type], info.ChildSim)
		}
	})
	var gs [][]float64
	for _, ty := range measurement.AllResourceTypes() {
		if g := groups[ty]; len(g) >= 5 {
			gs = append(gs, g)
		}
	}
	if len(gs) >= 2 {
		out.TypeEffect, out.TypeEffectErr = stats.KruskalWallis(gs...)
	} else {
		out.TypeEffectErr = stats.ErrInsufficientData
	}
	return out
}

// PartyAppearance reports §4.3's appearance-frequency statistics: in how
// many profiles a node appears, split by party and depth.
type PartyAppearance struct {
	FPDepth1Mean float64 // paper: 4.5 of 5
	FPDeeperMean float64 // paper: 3.6–4.8
	TPDepth1Mean float64 // paper: 3.9
	TPDeeperMean float64 // paper: 3.3

	FPShare float64 // share of nodes loaded first-party (paper: 32%)
	TPShare float64
	// TPDistinctDomains counts distinct third-party eTLD+1s.
	TPDistinctDomains int

	// FPChildSim / TPChildSim: similarity of children by party (paper:
	// .86 vs .68).
	FPChildSim stats.Summary
	TPChildSim stats.Summary

	// TPDeepDominance is the share of third-party nodes among nodes at
	// depth ≥ 3 (paper: 95%).
	TPDeepDominance float64
}

// PartyAppearance computes the §4.3 statistics.
func (a *Analysis) PartyAppearance() PartyAppearance {
	var res PartyAppearance
	var fp1, fpDeep, tp1, tpDeep []float64
	var fpChild, tpChild []float64
	var fpN, tpN, deepN, deepTP int
	domains := map[string]bool{}

	a.eachNonRootNode(func(pa *PageAnalysis, ni *treediff.NodeInfo) {
		d := ni.MeanDepth()
		pres := float64(ni.Presence)
		isFP := ni.Party == tree.FirstParty
		if isFP {
			fpN++
			if d == 1 {
				fp1 = append(fp1, pres)
			} else if d > 1 {
				fpDeep = append(fpDeep, pres)
			}
			if ni.HasChildAnywhere && ni.Presence >= 2 {
				fpChild = append(fpChild, ni.ChildSim)
			}
		} else {
			tpN++
			if d == 1 {
				tp1 = append(tp1, pres)
			} else if d > 1 {
				tpDeep = append(tpDeep, pres)
			}
			if ni.HasChildAnywhere && ni.Presence >= 2 {
				tpChild = append(tpChild, ni.ChildSim)
			}
			domains[hostSite(ni.Key)] = true
		}
		if d >= 3 {
			deepN++
			if !isFP {
				deepTP++
			}
		}
	})

	res.FPDepth1Mean = stats.Mean(fp1)
	res.FPDeeperMean = stats.Mean(fpDeep)
	res.TPDepth1Mean = stats.Mean(tp1)
	res.TPDeeperMean = stats.Mean(tpDeep)
	if fpN+tpN > 0 {
		res.FPShare = float64(fpN) / float64(fpN+tpN)
		res.TPShare = float64(tpN) / float64(fpN+tpN)
	}
	delete(domains, "")
	res.TPDistinctDomains = len(domains)
	res.FPChildSim = stats.Summarize(fpChild)
	res.TPChildSim = stats.Summarize(tpChild)
	if deepN > 0 {
		res.TPDeepDominance = float64(deepTP) / float64(deepN)
	}
	return res
}

// SameConfigComparison quantifies §4.4's Sim1-vs-Sim2 comparison: depth-set
// similarity on the upper levels (≤ 5) vs the deeper levels.
type SameConfigComparison struct {
	UpperSim float64 // paper: .92
	DeepSim  float64 // paper: .75
	Pages    int
}

// CompareSameConfig compares two identically configured profiles by name.
func (a *Analysis) CompareSameConfig(p1, p2 string) SameConfigComparison {
	var res SameConfigComparison
	if a.profileIndex(p1) < 0 || a.profileIndex(p2) < 0 {
		return res
	}
	var upper, deep []float64
	for _, pa := range a.pages {
		i, j := pa.treeIndex(p1), pa.treeIndex(p2)
		if i < 0 || j < 0 {
			continue
		}
		maxD := max(pa.Trees[i].MaxDepth(), pa.Trees[j].MaxDepth())
		var u, dp []float64
		for d := 1; d <= maxD; d++ {
			sim := pa.Cmp.DepthJaccard(i, j, d)
			if d <= 5 {
				u = append(u, sim)
			} else {
				dp = append(dp, sim)
			}
		}
		if len(u) > 0 {
			upper = append(upper, stats.Mean(u))
		}
		if len(dp) > 0 {
			deep = append(deep, stats.Mean(dp))
		}
		res.Pages++
	}
	res.UpperSim = stats.Mean(upper)
	res.DeepSim = stats.Mean(deep)
	return res
}

// ProfilePairwiseMatrix returns the mean per-page node-set similarity for
// every profile pair — the full symmetric view behind Table 6's columns.
// The diagonal is 1.
func (a *Analysis) ProfilePairwiseMatrix() ([]string, [][]float64) {
	n := len(a.profiles)
	sums := make([][]float64, n)
	counts := make([][]int, n)
	for i := range sums {
		sums[i] = make([]float64, n)
		counts[i] = make([]int, n)
	}
	for _, pa := range a.pages {
		for i := 0; i < len(pa.Trees); i++ {
			for j := i + 1; j < len(pa.Trees); j++ {
				pi := a.profileIndex(pa.Trees[i].Profile)
				pj := a.profileIndex(pa.Trees[j].Profile)
				if pi < 0 || pj < 0 {
					continue
				}
				s := pa.Cmp.PairwisePresence(i, j)
				sums[pi][pj] += s
				sums[pj][pi] += s
				counts[pi][pj]++
				counts[pj][pi]++
			}
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			if i == j {
				out[i][j] = 1
				continue
			}
			if counts[i][j] > 0 {
				out[i][j] = sums[i][j] / float64(counts[i][j])
			}
		}
	}
	return append([]string(nil), a.profiles...), out
}
