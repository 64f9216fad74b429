package core

import (
	"math"

	"webmeasure/internal/measurement"
	"webmeasure/internal/tree"
	"webmeasure/internal/urlutil"
)

// StaticDynamicReport operationalizes the paper's third takeaway: "an
// understanding of whether the phenomenon of interest is present in the
// dynamic (e.g., ads) or static (e.g., HTTP headers) content of a page is
// vital for planning the experiments." It contrasts the cross-profile
// stability of *static facets* of a node (HTTP status, content type, body
// size) with the stability of its *presence and relations* (the dynamic
// facets §4 shows to fluctuate).
type StaticDynamicReport struct {
	// NodesCompared is the number of node keys present in at least two
	// trees, over which the facet stabilities are computed.
	NodesCompared int

	// Static facets: the share of compared nodes whose facet is identical
	// in every tree containing them.
	ContentTypeStable float64
	StatusStable      float64
	// SizeStable uses a ±25% band: payloads may be re-rendered but a
	// header-level study would still classify them equally.
	SizeStable float64

	// Dynamic facets for contrast.
	PresenceStable float64 // nodes present in all trees
	ParentStable   float64 // nodes with ParentSim == 1
	ChildStable    float64 // nodes with ≥1 child and ChildSim == 1
}

// StaticDynamic computes the static-vs-dynamic stability contrast.
func (a *Analysis) StaticDynamic() StaticDynamicReport {
	var rep StaticDynamicReport
	var ctStable, stStable, szStable int
	var presence, parent int
	var childN, childStable int

	for _, pa := range a.pages {
		rootKey := pa.Trees[0].Root.Key
		for key, ni := range pa.Cmp.Nodes {
			if key == rootKey || ni.Presence < 2 {
				continue
			}
			rep.NodesCompared++

			ctSame, stSame, szSame := true, true, true
			firstCT, firstStatus := "", 0
			minSize, maxSize := math.MaxInt, 0
			seen := 0
			for _, t := range pa.Trees {
				n := t.Node(key)
				if n == nil {
					continue
				}
				seen++
				if seen == 1 {
					firstCT, firstStatus = n.ContentType, n.Status
				} else {
					if n.ContentType != firstCT {
						ctSame = false
					}
					if n.Status != firstStatus {
						stSame = false
					}
				}
				if n.BodySize < minSize {
					minSize = n.BodySize
				}
				if n.BodySize > maxSize {
					maxSize = n.BodySize
				}
			}
			if minSize > 0 && float64(maxSize-minSize)/float64(minSize) > 0.25 {
				szSame = false
			}
			if ctSame {
				ctStable++
			}
			if stSame {
				stStable++
			}
			if szSame {
				szStable++
			}

			if ni.Presence == len(pa.Trees) {
				presence++
			}
			if ni.ParentSim == 1 {
				parent++
			}
			if ni.HasChildAnywhere {
				childN++
				if ni.ChildSim == 1 {
					childStable++
				}
			}
		}
	}
	if rep.NodesCompared > 0 {
		n := float64(rep.NodesCompared)
		rep.ContentTypeStable = float64(ctStable) / n
		rep.StatusStable = float64(stStable) / n
		rep.SizeStable = float64(szStable) / n
		rep.PresenceStable = float64(presence) / n
		rep.ParentStable = float64(parent) / n
	}
	if childN > 0 {
		rep.ChildStable = float64(childStable) / float64(childN)
	}
	return rep
}

// StaticAdvantage is the headline number: how much more stable the static
// facets are than the dynamic ones (mean static share minus mean dynamic
// share). Positive values confirm takeaway 3.
func (r StaticDynamicReport) StaticAdvantage() float64 {
	static := (r.ContentTypeStable + r.StatusStable + r.SizeStable) / 3
	dynamic := (r.PresenceStable + r.ParentStable + r.ChildStable) / 3
	return static - dynamic
}

// AttributionReport aggregates the ground-truth attribution scores
// (tree.Builder.ScoreAttribution) over the vetted visits: how often the
// paper's §3.2 heuristics recover the true parent, and how often §6's
// URL-merge collapse bites.
type AttributionReport struct {
	Visits         int `json:"visits"`
	Attributable   int `json:"attributable"`
	Correct        int `json:"correct"`
	RootFallbacks  int `json:"root_fallbacks"`
	MergeArtifacts int `json:"merge_artifacts"`
}

// Accuracy returns Correct / Attributable (1 when nothing was attributable).
func (r AttributionReport) Accuracy() float64 {
	if r.Attributable == 0 {
		return 1
	}
	return float64(r.Correct) / float64(r.Attributable)
}

// add accumulates another report.
func (r *AttributionReport) add(o AttributionReport) {
	r.Visits += o.Visits
	r.Attributable += o.Attributable
	r.Correct += o.Correct
	r.RootFallbacks += o.RootFallbacks
	r.MergeArtifacts += o.MergeArtifacts
}

// Attribution sums the vetted pages' attribution scores: every vetted
// visit carrying ground truth, scored in the per-page pass against the
// tree the analysis built from it. Datasets captured by real
// instrumentation have no ground truth and yield a zero report.
func (a *Analysis) Attribution() AttributionReport {
	var rep AttributionReport
	for _, pa := range a.pages {
		rep.add(pa.Attribution)
	}
	return rep
}

// attribution scores each of a page's trees whose visit carries ground
// truth against that visit, byProfile[tree.Profile], under the builder's
// identity mode, resolving URLs through keys, the table the trees were
// built with.
func (w *pageWorker) attribution(trees []*tree.Tree, byProfile map[string]*measurement.Visit, keys *urlutil.KeyCache) AttributionReport {
	var rep AttributionReport
	for _, t := range trees {
		v := byProfile[t.Profile]
		if !hasGroundTruth(v) {
			continue
		}
		r := w.builder.ScoreAttribution(t, v, keys)
		rep.add(AttributionReport{Visits: 1, Attributable: r.Attributable, Correct: r.Correct,
			RootFallbacks: r.RootFallbacks, MergeArtifacts: r.MergeArtifacts})
	}
	return rep
}

func hasGroundTruth(v *measurement.Visit) bool {
	for i := range v.Requests {
		if v.Requests[i].TrueParentURL != "" {
			return true
		}
	}
	return false
}
