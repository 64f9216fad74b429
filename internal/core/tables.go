package core

import (
	"sort"

	"webmeasure/internal/measurement"
	"webmeasure/internal/stats"
	"webmeasure/internal/tranco"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
)

// TreeOverview is Table 2: dimensions of the measured trees and the
// presence of nodes across profiles.
type TreeOverview struct {
	Nodes   stats.Summary
	Depth   stats.Summary
	Breadth stats.Summary

	// MeanPresence is the average number of profiles a node appears in.
	MeanPresence float64
	PresenceSD   float64
	ShareInAll   float64 // nodes present in every profile
	ShareInOne   float64 // nodes present in exactly one profile
	// PairwiseVariation is the mean share of differing data when comparing
	// two profiles (§4: "48% of the underlying data varies").
	PairwiseVariation float64
}

// TreeOverview computes Table 2 over all vetted trees.
func (a *Analysis) TreeOverview() TreeOverview {
	var nodes, depths, breadths []float64
	var presences []float64
	var inAll, inOne, total int
	var pairSim []float64

	for _, pa := range a.pages {
		for _, t := range pa.Trees {
			nodes = append(nodes, float64(t.NodeCount()))
			depths = append(depths, float64(t.MaxDepth()))
			breadths = append(breadths, float64(t.Breadth()))
		}
		for _, ni := range pa.Cmp.Nodes[1:] {
			total++
			presences = append(presences, float64(ni.Presence))
			if ni.Presence == len(pa.Trees) {
				inAll++
			}
			if ni.Presence == 1 {
				inOne++
			}
		}
		for i := 0; i < len(pa.Trees); i++ {
			for j := i + 1; j < len(pa.Trees); j++ {
				pairSim = append(pairSim, pa.Cmp.PairwisePresence(i, j))
			}
		}
	}

	ov := TreeOverview{
		Nodes:   stats.Summarize(nodes),
		Depth:   stats.Summarize(depths),
		Breadth: stats.Summarize(breadths),
	}
	ps := stats.Summarize(presences)
	ov.MeanPresence, ov.PresenceSD = ps.Mean, ps.SD
	if total > 0 {
		ov.ShareInAll = float64(inAll) / float64(total)
		ov.ShareInOne = float64(inOne) / float64(total)
	}
	ov.PairwiseVariation = 1 - stats.Mean(pairSim)
	return ov
}

// DepthSimilarityRow is one row of Table 3.
type DepthSimilarityRow struct {
	Label    string
	Category stats.SimilarityCategory
	Sim      float64
	SD       float64
	Max      float64
	Min      float64
}

// DepthSimilarityTable computes Table 3: node-set similarity per depth
// under the paper's five population filters, aggregated over pages.
func (a *Analysis) DepthSimilarityTable() []DepthSimilarityRow {
	fp, tp := tree.FirstParty, tree.ThirdParty
	filters := []struct {
		label string
		f     treediff.DepthFilter
	}{
		{"across all depths (all nodes)", treediff.DepthFilter{}},
		{"across all depths (only nodes with children)", treediff.DepthFilter{OnlyWithChildren: true}},
		{"nodes in all trees", treediff.DepthFilter{OnlyInAllTrees: true}},
		{"first-party nodes", treediff.DepthFilter{Party: &fp}},
		{"third-party nodes", treediff.DepthFilter{Party: &tp}},
	}
	rows := make([]DepthSimilarityRow, 0, len(filters))
	for _, flt := range filters {
		var sims []float64
		for _, pa := range a.pages {
			if sim, depths := pa.Cmp.DepthSimilarity(flt.f); depths > 0 {
				sims = append(sims, sim)
			}
		}
		s := stats.Summarize(sims)
		rows = append(rows, DepthSimilarityRow{
			Label:    flt.label,
			Category: stats.Categorize(s.Mean),
			Sim:      s.Mean,
			SD:       s.SD,
			Max:      s.Max,
			Min:      s.Min,
		})
	}
	return rows
}

// ResourceChainRow is one row of Table 4a/4b.
type ResourceChainRow struct {
	Type measurement.ResourceType
	// SameChainShare is the share of the type's nodes (present in all
	// trees, depth ≥ 2) loaded by an identical dependency chain everywhere
	// (Table 4a).
	SameChainShare float64
	// ParentSim is the type's mean parent similarity (Table 4b's
	// "similarity").
	ParentSim float64
	// N is the number of nodes behind the row.
	N int
}

// ResourceChainTable computes the per-resource-type dependency-chain
// stability of §4.2 (Tables 4a and 4b). Rows are sorted by descending
// SameChainShare; slice/sort by ParentSim for the 4b view.
func (a *Analysis) ResourceChainTable() []ResourceChainRow {
	type agg struct {
		n, same   int
		parentSim []float64
	}
	byType := map[measurement.ResourceType]*agg{}
	a.eachNonRootNode(func(pa *PageAnalysis, ni *treediff.NodeInfo) {
		if ni.Presence != len(pa.Trees) || ni.MeanDepth() < 2 {
			return
		}
		g := byType[ni.Type]
		if g == nil {
			g = &agg{}
			byType[ni.Type] = g
		}
		g.n++
		if ni.ChainEqualAll {
			g.same++
		}
		g.parentSim = append(g.parentSim, ni.ParentSim)
	})
	rows := make([]ResourceChainRow, 0, len(byType))
	for ty, g := range byType {
		if g.n < 5 {
			continue // too few observations to rank
		}
		rows = append(rows, ResourceChainRow{
			Type:           ty,
			SameChainShare: float64(g.same) / float64(g.n),
			ParentSim:      stats.Mean(g.parentSim),
			N:              g.n,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SameChainShare != rows[j].SameChainShare {
			return rows[i].SameChainShare > rows[j].SameChainShare
		}
		return rows[i].Type < rows[j].Type
	})
	return rows
}

// ChainStability reports the §4.2 headline chain statistics.
type ChainStability struct {
	// SameChainShareAll: nodes (in all trees) with identical chains.
	SameChainShareAll float64
	// SameChainShareDeep: the same excluding depth-one nodes.
	SameChainShareDeep float64
	// UniqueChainShare: nodes with a chain observed in only one profile.
	UniqueChainShare float64
	// SameParentShare: nodes at the same depth in all trees loaded by the
	// same parent everywhere (the "61%" figure).
	SameParentShare float64
	// FirstParty/ThirdParty/Tracking/NonTracking same-chain shares.
	SameChainFP, SameChainTP          float64
	SameChainTracking, SameChainOther float64
}

// ChainStability computes the dependency-chain stability statistics.
func (a *Analysis) ChainStability() ChainStability {
	var all, same, deepN, deepSame, uniqueAny int
	var fpN, fpSame, tpN, tpSame, trN, trSame, ntN, ntSame int
	var sameDepthN, sameParentN int
	a.eachNonRootNode(func(pa *PageAnalysis, ni *treediff.NodeInfo) {
		if ni.Presence != len(pa.Trees) {
			return
		}
		all++
		if ni.ChainEqualAll {
			same++
		}
		if ni.UniqueChains > 0 {
			uniqueAny++
		}
		if ni.MeanDepth() >= 2 {
			deepN++
			if ni.ChainEqualAll {
				deepSame++
			}
			if ni.Party == tree.FirstParty {
				fpN++
				if ni.ChainEqualAll {
					fpSame++
				}
			} else {
				tpN++
				if ni.ChainEqualAll {
					tpSame++
				}
			}
			if ni.Tracking {
				trN++
				if ni.ChainEqualAll {
					trSame++
				}
			} else {
				ntN++
				if ni.ChainEqualAll {
					ntSame++
				}
			}
		}
		if ni.SameDepth && ni.MeanDepth() >= 2 {
			sameDepthN++
			if ni.SameParentEverywhere {
				sameParentN++
			}
		}
	})
	share := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	return ChainStability{
		SameChainShareAll:  share(same, all),
		SameChainShareDeep: share(deepSame, deepN),
		UniqueChainShare:   share(uniqueAny, all),
		SameParentShare:    share(sameParentN, sameDepthN),
		SameChainFP:        share(fpSame, fpN),
		SameChainTP:        share(tpSame, tpN),
		SameChainTracking:  share(trSame, trN),
		SameChainOther:     share(ntSame, ntN),
	}
}

// ProfileTotalsRow is one row of Table 5.
type ProfileTotalsRow struct {
	Profile    string
	Nodes      int
	ThirdParty int
	Tracker    int
	MaxDepth   int
	MaxBreadth int
}

// ProfileTotals computes Table 5 over the vetted trees.
func (a *Analysis) ProfileTotals() []ProfileTotalsRow {
	rows := make([]ProfileTotalsRow, len(a.profiles))
	idx := map[string]int{}
	for i, p := range a.profiles {
		rows[i].Profile = p
		idx[p] = i
	}
	for _, pa := range a.pages {
		for _, t := range pa.Trees {
			r := &rows[idx[t.Profile]]
			r.Nodes += t.NodeCount()
			for _, n := range t.Nodes() {
				if n.Party == tree.ThirdParty {
					r.ThirdParty++
				}
				if n.Tracking {
					r.Tracker++
				}
			}
			if d := t.MaxDepth(); d > r.MaxDepth {
				r.MaxDepth = d
			}
			if b := t.Breadth(); b > r.MaxBreadth {
				r.MaxBreadth = b
			}
		}
	}
	return rows
}

// ProfilePairRow is one column of Table 6: profile `Other` compared to the
// reference profile (Sim1).
type ProfilePairRow struct {
	Other string

	FPChildrenPerfect float64
	FPChildrenNone    float64
	TPChildrenPerfect float64
	TPChildrenNone    float64
	FPParentPerfect   float64
	FPParentNone      float64
	TPParentPerfect   float64
	TPParentNone      float64

	// MeanParentSim: nodes at depth ≥ 2 (✻ in the paper's table).
	MeanParentSim float64
	// MeanChildSim: nodes with at least one child (✚).
	MeanChildSim float64
}

// ProfilePairTable computes Table 6: every profile against the reference
// (by name, typically "Sim1"). Pairs are compared on nodes present in both
// trees of a page, through the pair view of the page's comparison.
func (a *Analysis) ProfilePairTable(reference string) []ProfilePairRow {
	if a.profileIndex(reference) < 0 {
		return nil
	}
	// pairTally counts one party's nodes and their perfect (1) and
	// disjoint (0) child and parent similarities.
	type pairTally struct {
		n, childPerfect, childNone, parentPerfect, parentNone int
	}
	var rows []ProfilePairRow
	for _, other := range a.profiles {
		if other == reference {
			continue
		}
		var fp, tp pairTally
		var parentSims, childSims []float64
		for _, pa := range a.pages {
			ri, oi := pa.treeIndex(reference), pa.treeIndex(other)
			if ri < 0 || oi < 0 {
				continue
			}
			pa.Cmp.EachPair(ri, oi, func(ref, oth *tree.Node, childJ, parJ float64) {
				t := &tp
				if ref.Party == tree.FirstParty {
					t = &fp
				}
				t.n++
				if childJ == 1 {
					t.childPerfect++
				}
				if childJ == 0 {
					t.childNone++
				}
				if parJ == 1 {
					t.parentPerfect++
				}
				if parJ == 0 {
					t.parentNone++
				}
				if float64(ref.Depth+oth.Depth)/2 >= 2 {
					parentSims = append(parentSims, parJ)
				}
				if len(ref.Children) > 0 || len(oth.Children) > 0 {
					childSims = append(childSims, childJ)
				}
			})
		}
		share := func(n, d int) float64 {
			if d == 0 {
				return 0
			}
			return float64(n) / float64(d)
		}
		rows = append(rows, ProfilePairRow{
			Other:             other,
			FPChildrenPerfect: share(fp.childPerfect, fp.n),
			FPChildrenNone:    share(fp.childNone, fp.n),
			TPChildrenPerfect: share(tp.childPerfect, tp.n),
			TPChildrenNone:    share(tp.childNone, tp.n),
			FPParentPerfect:   share(fp.parentPerfect, fp.n),
			FPParentNone:      share(fp.parentNone, fp.n),
			TPParentPerfect:   share(tp.parentPerfect, tp.n),
			TPParentNone:      share(tp.parentNone, tp.n),
			// stats.Mean sorts before it sums, so the pair view's key order
			// cannot move the means.
			MeanParentSim: stats.Mean(parentSims),
			MeanChildSim:  stats.Mean(childSims),
		})
	}
	return rows
}

// RankBucketRow is one row of Table 7 (Appendix F).
type RankBucketRow struct {
	Bucket    string
	MeanNodes float64
	ChildSim  float64
	ParentSim float64
	Pages     int
}

// RankBucketResult is Table 7 plus its Kruskal-Wallis tests.
type RankBucketResult struct {
	Rows []RankBucketRow
	// NodesTest tests total nodes across buckets; SimTest tests child
	// similarity across buckets.
	NodesTest stats.TestResult
	SimTest   stats.TestResult
	// Epsilon2 is the effect size of SimTest (the paper reports ε² = .002:
	// significant but practically negligible).
	Epsilon2  float64
	TestError error
}

// RankBuckets computes the Appendix F popularity analysis. boundaries are
// the rank-bucket upper bounds (tranco.PaperBoundaries or scaled).
func (a *Analysis) RankBuckets(boundaries []int) RankBucketResult {
	n := len(boundaries)
	type agg struct {
		nodes, child, parent []float64
	}
	aggs := make([]agg, n)
	for _, pa := range a.pages {
		rank, ok := a.siteRank[pa.Key.Site]
		if !ok {
			continue
		}
		bi := tranco.BucketIndex(rank, boundaries)
		if bi < 0 {
			continue
		}
		var nodeCount float64
		for _, t := range pa.Trees {
			nodeCount += float64(t.NodeCount())
		}
		nodeCount /= float64(len(pa.Trees))
		var childSims, parentSims []float64
		for _, ni := range pa.Cmp.Nodes[1:] {
			if ni.HasChildAnywhere {
				childSims = append(childSims, ni.ChildSim)
			}
			if ni.MeanDepth() >= 2 {
				parentSims = append(parentSims, ni.ParentSim)
			}
		}
		aggs[bi].nodes = append(aggs[bi].nodes, nodeCount)
		if len(childSims) > 0 {
			aggs[bi].child = append(aggs[bi].child, stats.Mean(childSims))
		}
		if len(parentSims) > 0 {
			aggs[bi].parent = append(aggs[bi].parent, stats.Mean(parentSims))
		}
	}
	res := RankBucketResult{}
	var nodeGroups, simGroups [][]float64
	for i := range aggs {
		name := ""
		if i < len(tranco.BucketNames) {
			name = tranco.BucketNames[i]
		}
		res.Rows = append(res.Rows, RankBucketRow{
			Bucket:    name,
			MeanNodes: stats.Mean(aggs[i].nodes),
			ChildSim:  stats.Mean(aggs[i].child),
			ParentSim: stats.Mean(aggs[i].parent),
			Pages:     len(aggs[i].nodes),
		})
		if len(aggs[i].nodes) > 0 {
			nodeGroups = append(nodeGroups, aggs[i].nodes)
			simGroups = append(simGroups, aggs[i].child)
		}
	}
	if len(nodeGroups) >= 2 {
		var err error
		res.NodesTest, err = stats.KruskalWallis(nodeGroups...)
		if err == nil {
			res.SimTest, err = stats.KruskalWallis(simGroups...)
		}
		if err == nil {
			res.Epsilon2 = stats.EpsilonSquared(res.SimTest)
		}
		res.TestError = err
	}
	return res
}
