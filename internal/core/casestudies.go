package core

import (
	"slices"
	"sort"

	"webmeasure/internal/measurement"
	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
	"webmeasure/internal/urlutil"
)

// UniqueNodesResult is the §5.1 case study: nodes whose URL appears in
// exactly one tree of the entire dataset.
type UniqueNodesResult struct {
	TotalNodes  int // distinct (page, key) node aggregates
	UniqueNodes int
	UniqueShare float64

	TrackingShare   float64 // unique nodes that are tracking requests
	ThirdPartyShare float64 // unique nodes in a third-party context
	DepthMean       float64
	DepthSD         float64
	ShareAtDepthOne float64

	// TypeShares lists the most common resource types among unique nodes.
	TypeShares []TypeShare
	// TopHosts lists the eTLD+1s hosting the most unique nodes.
	TopHosts []HostShare
	// MeanSharePerTree is the average share of unique nodes per tree.
	MeanSharePerTree float64
}

// TypeShare pairs a resource type with its share.
type TypeShare struct {
	Type  measurement.ResourceType
	Share float64
}

// HostShare pairs a hosting site with its share of unique nodes.
type HostShare struct {
	Host  string
	Share float64
}

// UniqueNodes computes the unique-node case study. Uniqueness is global:
// a node key counted once across every tree of every vetted page (§5.1
// "the URL corresponding to this node is only present once in our
// dataset").
func (a *Analysis) UniqueNodes() UniqueNodesResult {
	defer a.phaseTimer("casestudy.uniquenodes")()
	globalCount := map[string]int{}
	a.eachNonRootNode(func(pa *PageAnalysis, ni *treediff.NodeInfo) {
		globalCount[ni.Key] += ni.Presence
	})

	var res UniqueNodesResult
	var depths []float64
	typeCounts := map[measurement.ResourceType]int{}
	hostCounts := map[string]int{}
	var perTreeShares []float64

	a.eachNonRootNode(func(pa *PageAnalysis, ni *treediff.NodeInfo) {
		res.TotalNodes++
		if globalCount[ni.Key] != 1 {
			return
		}
		res.UniqueNodes++
		if ni.Tracking {
			res.TrackingShare++
		}
		if ni.Party == tree.ThirdParty {
			res.ThirdPartyShare++
		}
		depths = append(depths, ni.MeanDepth())
		if ni.MeanDepth() == 1 {
			res.ShareAtDepthOne++
		}
		typeCounts[ni.Type]++
		if site := urlutil.Site(ni.Key); site != "" {
			hostCounts[site]++
		}
	})
	for _, pa := range a.pages {
		for _, t := range pa.Trees {
			unique := 0
			for _, n := range t.Nodes() {
				if !n.IsRoot() && globalCount[n.Key] == 1 {
					unique++
				}
			}
			if c := t.NodeCount() - 1; c > 0 {
				perTreeShares = append(perTreeShares, float64(unique)/float64(c))
			}
		}
	}

	if res.TotalNodes > 0 {
		res.UniqueShare = float64(res.UniqueNodes) / float64(res.TotalNodes)
	}
	if res.UniqueNodes > 0 {
		res.TrackingShare /= float64(res.UniqueNodes)
		res.ThirdPartyShare /= float64(res.UniqueNodes)
		res.ShareAtDepthOne /= float64(res.UniqueNodes)
		ds := stats.Summarize(depths)
		res.DepthMean, res.DepthSD = ds.Mean, ds.SD
		for ty, c := range typeCounts {
			res.TypeShares = append(res.TypeShares, TypeShare{Type: ty, Share: float64(c) / float64(res.UniqueNodes)})
		}
		sort.Slice(res.TypeShares, func(i, j int) bool {
			if res.TypeShares[i].Share != res.TypeShares[j].Share {
				return res.TypeShares[i].Share > res.TypeShares[j].Share
			}
			return res.TypeShares[i].Type < res.TypeShares[j].Type
		})
		for h, c := range hostCounts {
			res.TopHosts = append(res.TopHosts, HostShare{Host: h, Share: float64(c) / float64(res.UniqueNodes)})
		}
		sort.Slice(res.TopHosts, func(i, j int) bool {
			if res.TopHosts[i].Share != res.TopHosts[j].Share {
				return res.TopHosts[i].Share > res.TopHosts[j].Share
			}
			return res.TopHosts[i].Host < res.TopHosts[j].Host
		})
		if len(res.TopHosts) > 10 {
			res.TopHosts = res.TopHosts[:10]
		}
	}
	res.MeanSharePerTree = stats.Mean(perTreeShares)
	return res
}

// CookieStudyResult is the §5.2 case study.
type CookieStudyResult struct {
	TotalObservations int // cookie observations across all visits
	DistinctCookies   int // distinct (name, domain, path) identities
	PerProfile        map[string]int

	ShareInAllProfiles float64
	ShareInOneProfile  float64

	// MeanJaccard is the mean per-page pairwise Jaccard of cookie identity
	// sets across all profiles.
	MeanJaccard stats.Summary
	// InteractionVsNone compares profiles with interaction against the
	// NoAction profile (pairwise Jaccard vs NoAction only).
	InteractionVsNone stats.Summary
	// AttributeMismatch counts distinct cookies whose security attributes
	// differed between profiles.
	AttributeMismatch int
}

// CookieStudy computes the cookie case study over vetted pages.
func (a *Analysis) CookieStudy(noActionProfile string) CookieStudyResult {
	defer a.phaseTimer("casestudy.cookies")()
	res := CookieStudyResult{PerProfile: map[string]int{}}
	noIdx := a.profileIndex(noActionProfile)

	distinct := map[string]bool{}
	presence := map[string]map[string]bool{} // cookie ID → set of profiles
	attrs := map[string]map[string]bool{}    // cookie ID → attribute signatures
	var pageSims, noneSims []float64

	for _, pa := range a.pages {
		sets := make([][]string, len(a.profiles))
		for pi, prof := range a.profiles {
			var ids []string
			for _, c := range pa.visits[pi].cookies {
				id := c.ID()
				ids = append(ids, id)
				distinct[id] = true
				if presence[id] == nil {
					presence[id] = map[string]bool{}
				}
				presence[id][prof] = true
				if attrs[id] == nil {
					attrs[id] = map[string]bool{}
				}
				attrs[id][c.AttributeSignature()] = true
				res.PerProfile[prof]++
				res.TotalObservations++
			}
			slices.Sort(ids)
			sets[pi] = ids
		}
		pageSims = append(pageSims, stats.PairwiseMeanJaccardSorted(sets))
		if noIdx >= 0 {
			for pi := range sets {
				if pi == noIdx {
					continue
				}
				noneSims = append(noneSims, stats.JaccardSorted(sets[pi], sets[noIdx]))
			}
		}
	}

	res.DistinctCookies = len(distinct)
	var inAll, inOne int
	for _, profs := range presence {
		if len(profs) == len(a.profiles) {
			inAll++
		}
		if len(profs) == 1 {
			inOne++
		}
	}
	if res.DistinctCookies > 0 {
		res.ShareInAllProfiles = float64(inAll) / float64(res.DistinctCookies)
		res.ShareInOneProfile = float64(inOne) / float64(res.DistinctCookies)
	}
	for _, sigs := range attrs {
		if len(sigs) > 1 {
			res.AttributeMismatch++
		}
	}
	res.MeanJaccard = stats.Summarize(pageSims)
	res.InteractionVsNone = stats.Summarize(noneSims)
	return res
}

// TrackingStudyResult is the §5.3 case study.
type TrackingStudyResult struct {
	TrackingShare float64 // share of nodes used for tracking

	TrackingNodeSim      stats.Summary // child+parent blended per-node similarity is not defined; this is presence-based node similarity per page
	TrackingChildSim     stats.Summary
	NonTrackingChildSim  stats.Summary
	TrackingParentSim    stats.Summary
	NonTrackingParentSim stats.Summary

	TrackingMeanChildren    float64
	NonTrackingMeanChildren float64

	// Depth distribution of tracking nodes.
	DepthShares []float64 // index = depth (0..len-1), last bucket = deeper

	// Parent context of tracking requests.
	TriggeredByTracker      float64 // parents that are tracking nodes
	TrackerParentThirdParty float64 // tracking parents in third-party context
	TriggeredByFirstParty   float64 // tracking nodes with first-party parents
	ParentTypeScript        float64
	ParentTypeSubframe      float64
	ParentTypeMainframe     float64
}

// TrackingStudy computes the tracking-request case study.
func (a *Analysis) TrackingStudy() TrackingStudyResult {
	defer a.phaseTimer("casestudy.tracking")()
	var res TrackingStudyResult
	var total, tracking int
	var trChild, ntChild, trParent, ntParent, trNodeSim []float64
	var trChildren, ntChildren []float64
	depthCounts := make([]int, 5) // 1,2,3,4,deeper
	var depthTotal int

	var parentTracker, parentFP, parentTP, parentTotal int
	var trackerParentTP, trackerParentTotal int
	var ptScript, ptSub, ptMain int

	for _, pa := range a.pages {
		rootKey := pa.Trees[0].Root.Key
		// Per-page presence similarity of tracking node sets.
		sets := make([][]string, len(pa.Trees))
		for ti, t := range pa.Trees {
			var keys []string
			for _, n := range t.Nodes() {
				if n.Tracking {
					keys = append(keys, n.Key)
				}
			}
			slices.Sort(keys)
			sets[ti] = keys
		}
		hasTracking := false
		for _, s := range sets {
			if len(s) > 0 {
				hasTracking = true
			}
		}
		if hasTracking {
			trNodeSim = append(trNodeSim, stats.PairwiseMeanJaccardSorted(sets))
		}

		for key, ni := range pa.Cmp.Nodes {
			if key == rootKey {
				continue
			}
			total++
			meanChildren := meanPresentChildren(ni)
			if ni.Tracking {
				tracking++
				if ni.Presence >= 2 {
					if ni.HasChildAnywhere {
						trChild = append(trChild, ni.ChildSim)
					}
					trParent = append(trParent, ni.ParentSim)
				}
				trChildren = append(trChildren, meanChildren)
				d := int(ni.MeanDepth())
				switch {
				case d <= 1:
					depthCounts[0]++
				case d == 2:
					depthCounts[1]++
				case d == 3:
					depthCounts[2]++
				case d == 4:
					depthCounts[3]++
				default:
					depthCounts[4]++
				}
				depthTotal++
			} else {
				if ni.Presence >= 2 {
					if ni.HasChildAnywhere {
						ntChild = append(ntChild, ni.ChildSim)
					}
					ntParent = append(ntParent, ni.ParentSim)
				}
				ntChildren = append(ntChildren, meanChildren)
			}
		}

		// Parent context per tracking node instance.
		for _, t := range pa.Trees {
			for _, n := range t.Nodes() {
				if !n.Tracking || n.Parent == nil {
					continue
				}
				parentTotal++
				p := n.Parent
				if p.Tracking {
					parentTracker++
					trackerParentTotal++
					if p.Party == tree.ThirdParty {
						trackerParentTP++
					}
				}
				if p.Party == tree.FirstParty {
					parentFP++
				} else {
					parentTP++
				}
				switch p.Type {
				case measurement.TypeScript:
					ptScript++
				case measurement.TypeSubFrame:
					ptSub++
				case measurement.TypeMainFrame:
					ptMain++
				}
			}
		}
	}

	if total > 0 {
		res.TrackingShare = float64(tracking) / float64(total)
	}
	res.TrackingNodeSim = stats.Summarize(trNodeSim)
	res.TrackingChildSim = stats.Summarize(trChild)
	res.NonTrackingChildSim = stats.Summarize(ntChild)
	res.TrackingParentSim = stats.Summarize(trParent)
	res.NonTrackingParentSim = stats.Summarize(ntParent)
	res.TrackingMeanChildren = stats.Mean(trChildren)
	res.NonTrackingMeanChildren = stats.Mean(ntChildren)
	if depthTotal > 0 {
		res.DepthShares = make([]float64, len(depthCounts))
		for i, c := range depthCounts {
			res.DepthShares[i] = float64(c) / float64(depthTotal)
		}
	}
	if parentTotal > 0 {
		res.TriggeredByTracker = float64(parentTracker) / float64(parentTotal)
		res.TriggeredByFirstParty = float64(parentFP) / float64(parentTotal)
		res.ParentTypeScript = float64(ptScript) / float64(parentTotal)
		res.ParentTypeSubframe = float64(ptSub) / float64(parentTotal)
		res.ParentTypeMainframe = float64(ptMain) / float64(parentTotal)
	}
	if trackerParentTotal > 0 {
		res.TrackerParentThirdParty = float64(trackerParentTP) / float64(trackerParentTotal)
	}
	return res
}

// meanPresentChildren averages a node's child counts over the trees
// containing it.
func meanPresentChildren(ni *treediff.NodeInfo) float64 {
	sum, n := 0, 0
	for _, c := range ni.NumChildren {
		if c >= 0 {
			sum += c
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
