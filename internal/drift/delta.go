package drift

// Delta computation: the epoch-over-epoch comparison of two baselines.
// Set drift uses sorted-merge diffs and Jaccard over the stored domain
// sets; structural drift rebuilds the stored reference trees and reruns
// the treediff kernels across epochs — the same depth-weighted node-set
// similarity the paper uses between profiles, here applied between
// epochs of the same profile, plus the whole-tree edge score.

import (
	"fmt"

	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
)

// SiteDelta is one site's epoch-over-epoch drift.
type SiteDelta struct {
	Site                 string   `json:"site"`
	NewThirdParties      []string `json:"new_third_parties,omitempty"`
	VanishedThirdParties []string `json:"vanished_third_parties,omitempty"`
	ThirdPartyJaccard    float64  `json:"third_party_jaccard"`
	NewTrackers          []string `json:"new_trackers,omitempty"`
	VanishedTrackers     []string `json:"vanished_trackers,omitempty"`
	// CommonPages counts pages vetted in both epochs; the similarities
	// below are means over them (1 when there are none: no evidence of
	// change).
	CommonPages    int     `json:"common_pages"`
	TreeSimilarity float64 `json:"tree_similarity"`
	EdgeSimilarity float64 `json:"edge_similarity"`
}

// Delta is the drift between two baselines of the same experiment.
type Delta struct {
	SchemaVersion int `json:"schema_version"`
	FromEpoch     int `json:"from_epoch"`
	ToEpoch       int `json:"to_epoch"`

	// Global third-party ecosystem drift.
	NewThirdParties      []string `json:"new_third_parties,omitempty"`
	VanishedThirdParties []string `json:"vanished_third_parties,omitempty"`
	ThirdPartyJaccard    float64  `json:"third_party_jaccard"`
	NewTrackers          []string `json:"new_trackers,omitempty"`
	VanishedTrackers     []string `json:"vanished_trackers,omitempty"`

	// Tracking-share drift (to − from).
	TrackingShareFrom  float64 `json:"tracking_share_from"`
	TrackingShareTo    float64 `json:"tracking_share_to"`
	TrackingShareDrift float64 `json:"tracking_share_drift"`

	// Tree-shape drift (to − from; Rel is relative to from, 0 when from
	// is 0).
	MeanNodesDrift    float64 `json:"mean_nodes_drift"`
	MeanNodesDriftRel float64 `json:"mean_nodes_drift_rel"`
	MeanDepthDrift    float64 `json:"mean_depth_drift"`

	// Profile-similarity drift: how much the cross-profile agreement
	// itself moved between epochs.
	ChildSimDrift        float64 `json:"child_sim_drift"`
	ParentSimDrift       float64 `json:"parent_sim_drift"`
	DepthSimilarityDrift float64 `json:"depth_similarity_drift"`

	// Cross-epoch structural similarity over common pages (means of the
	// per-site values, weighted by common pages).
	CommonPages    int     `json:"common_pages"`
	TreeSimilarity float64 `json:"tree_similarity"`
	EdgeSimilarity float64 `json:"edge_similarity"`

	VettedPagesFrom     int     `json:"vetted_pages_from"`
	VettedPagesTo       int     `json:"vetted_pages_to"`
	VettedPagesDriftRel float64 `json:"vetted_pages_drift_rel"`

	NewSites      []string    `json:"new_sites,omitempty"`
	VanishedSites []string    `json:"vanished_sites,omitempty"`
	SiteDeltas    []SiteDelta `json:"site_deltas,omitempty"`
}

// Diff computes the drift from one baseline to another. Both must carry
// the current schema version and describe the same experiment (same
// seed, scale, profiles, and fault profile — only the epoch may differ);
// anything else would conflate setup difference with ecosystem drift.
func Diff(from, to *Baseline) (*Delta, error) {
	if from == nil || to == nil {
		return nil, fmt.Errorf("drift: Diff requires two baselines")
	}
	if from.Meta.SchemaVersion != SchemaVersion || to.Meta.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("drift: baseline schema mismatch (%d vs %d, want %d)",
			from.Meta.SchemaVersion, to.Meta.SchemaVersion, SchemaVersion)
	}
	if !from.Meta.sameExperiment(to.Meta) {
		return nil, fmt.Errorf("drift: baselines describe different experiments (epoch %d seed %d vs epoch %d seed %d)",
			from.Meta.Epoch, from.Meta.Seed, to.Meta.Epoch, to.Meta.Seed)
	}

	d := &Delta{
		SchemaVersion: SchemaVersion,
		FromEpoch:     from.Meta.Epoch,
		ToEpoch:       to.Meta.Epoch,

		TrackingShareFrom:  from.TrackingShare,
		TrackingShareTo:    to.TrackingShare,
		TrackingShareDrift: to.TrackingShare - from.TrackingShare,

		MeanNodesDrift: to.MeanNodes - from.MeanNodes,
		MeanDepthDrift: to.MeanDepth - from.MeanDepth,

		ChildSimDrift:        to.MeanChildSim - from.MeanChildSim,
		ParentSimDrift:       to.MeanParentSim - from.MeanParentSim,
		DepthSimilarityDrift: to.DepthSimilarityAll - from.DepthSimilarityAll,

		VettedPagesFrom: from.VettedPages,
		VettedPagesTo:   to.VettedPages,
	}
	if from.MeanNodes != 0 {
		d.MeanNodesDriftRel = d.MeanNodesDrift / from.MeanNodes
	}
	if from.VettedPages != 0 {
		d.VettedPagesDriftRel = float64(to.VettedPages-from.VettedPages) / float64(from.VettedPages)
	}

	d.VanishedThirdParties, d.NewThirdParties = setDiff(from.ThirdParties, to.ThirdParties)
	d.ThirdPartyJaccard = stats.JaccardSorted(from.ThirdParties, to.ThirdParties)
	d.VanishedTrackers, d.NewTrackers = setDiff(from.Trackers, to.Trackers)

	// Per-site pass: sorted merge over the two site lists.
	var treeSims, edgeSims []float64
	i, j := 0, 0
	for i < len(from.SiteBaselines) || j < len(to.SiteBaselines) {
		switch {
		case j >= len(to.SiteBaselines) || (i < len(from.SiteBaselines) && from.SiteBaselines[i].Site < to.SiteBaselines[j].Site):
			d.VanishedSites = append(d.VanishedSites, from.SiteBaselines[i].Site)
			i++
		case i >= len(from.SiteBaselines) || to.SiteBaselines[j].Site < from.SiteBaselines[i].Site:
			d.NewSites = append(d.NewSites, to.SiteBaselines[j].Site)
			j++
		default:
			sd, err := siteDiff(from.SiteBaselines[i], to.SiteBaselines[j])
			if err != nil {
				return nil, err
			}
			d.SiteDeltas = append(d.SiteDeltas, sd)
			for k := 0; k < sd.CommonPages; k++ {
				treeSims = append(treeSims, sd.TreeSimilarity)
				edgeSims = append(edgeSims, sd.EdgeSimilarity)
			}
			d.CommonPages += sd.CommonPages
			i++
			j++
		}
	}
	if d.CommonPages > 0 {
		d.TreeSimilarity = stats.Summarize(treeSims).Mean
		d.EdgeSimilarity = stats.Summarize(edgeSims).Mean
	} else {
		d.TreeSimilarity, d.EdgeSimilarity = 1, 1
	}
	return d, nil
}

// siteDiff computes one common site's drift, rerunning the treediff
// kernels over the epoch pair of each common page's reference tree.
func siteDiff(from, to *SiteBaseline) (SiteDelta, error) {
	sd := SiteDelta{Site: from.Site}
	sd.VanishedThirdParties, sd.NewThirdParties = setDiff(from.ThirdParties, to.ThirdParties)
	sd.ThirdPartyJaccard = stats.JaccardSorted(from.ThirdParties, to.ThirdParties)
	sd.VanishedTrackers, sd.NewTrackers = setDiff(from.Trackers, to.Trackers)

	var treeSims, edgeSims []float64
	i, j := 0, 0
	for i < len(from.Trees) && j < len(to.Trees) {
		switch {
		case from.Trees[i].PageURL < to.Trees[j].PageURL:
			i++
		case to.Trees[j].PageURL < from.Trees[i].PageURL:
			j++
		default:
			oldT, err := from.Trees[i].Tree()
			if err != nil {
				return sd, fmt.Errorf("drift: site %q page %q (from): %w", from.Site, from.Trees[i].PageURL, err)
			}
			newT, err := to.Trees[j].Tree()
			if err != nil {
				return sd, fmt.Errorf("drift: site %q page %q (to): %w", to.Site, to.Trees[j].PageURL, err)
			}
			cross := treediff.Compare([]*tree.Tree{oldT, newT})
			if sim, depths := cross.DepthSimilarity(treediff.DepthFilter{}); depths > 0 {
				treeSims = append(treeSims, sim)
			} else {
				treeSims = append(treeSims, 1)
			}
			edgeSims = append(edgeSims, cross.EdgeSimilarity())
			sd.CommonPages++
			i++
			j++
		}
	}
	if sd.CommonPages > 0 {
		sd.TreeSimilarity = stats.Summarize(treeSims).Mean
		sd.EdgeSimilarity = stats.Summarize(edgeSims).Mean
	} else {
		sd.TreeSimilarity, sd.EdgeSimilarity = 1, 1
	}
	return sd, nil
}

// setDiff returns (only-in-a, only-in-b) over two sorted unique slices.
func setDiff(a, b []string) (onlyA, onlyB []string) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			onlyA = append(onlyA, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			onlyB = append(onlyB, b[j])
			j++
		default:
			i++
			j++
		}
	}
	return onlyA, onlyB
}

// Encode renders the delta as indented JSON with a trailing newline.
func (d *Delta) Encode() ([]byte, error) { return encodeIndented(d) }

// MetricNames lists the values Metric exposes, in rule-file order.
var MetricNames = []string{
	"tracking_share",
	"tracking_share_drift",
	"third_party_jaccard",
	"new_third_parties",
	"vanished_third_parties",
	"new_trackers",
	"vanished_trackers",
	"tree_similarity",
	"edge_similarity",
	"child_sim_drift",
	"parent_sim_drift",
	"depth_similarity_drift",
	"mean_nodes_drift_rel",
	"vetted_pages_drift_rel",
	"new_sites",
	"vanished_sites",
}

// Metric resolves a rule metric name against the delta. Count-valued
// metrics are exposed as float64 so one threshold grammar covers both.
func (d *Delta) Metric(name string) (float64, bool) {
	switch name {
	case "tracking_share":
		return d.TrackingShareTo, true
	case "tracking_share_drift":
		return d.TrackingShareDrift, true
	case "third_party_jaccard":
		return d.ThirdPartyJaccard, true
	case "new_third_parties":
		return float64(len(d.NewThirdParties)), true
	case "vanished_third_parties":
		return float64(len(d.VanishedThirdParties)), true
	case "new_trackers":
		return float64(len(d.NewTrackers)), true
	case "vanished_trackers":
		return float64(len(d.VanishedTrackers)), true
	case "tree_similarity":
		return d.TreeSimilarity, true
	case "edge_similarity":
		return d.EdgeSimilarity, true
	case "child_sim_drift":
		return d.ChildSimDrift, true
	case "parent_sim_drift":
		return d.ParentSimDrift, true
	case "depth_similarity_drift":
		return d.DepthSimilarityDrift, true
	case "mean_nodes_drift_rel":
		return d.MeanNodesDriftRel, true
	case "vetted_pages_drift_rel":
		return d.VettedPagesDriftRel, true
	case "new_sites":
		return float64(len(d.NewSites)), true
	case "vanished_sites":
		return float64(len(d.VanishedSites)), true
	}
	return 0, false
}
