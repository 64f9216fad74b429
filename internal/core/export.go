package core

import (
	"encoding/json"
	"io"

	"webmeasure/internal/stats"
)

// Export bundles every analysis result in a machine-readable form, so CI
// pipelines can diff reproduction runs and downstream tooling can plot
// without scraping the text report.
type Export struct {
	CrawlSummary    CrawlSummary           `json:"crawl_summary"`
	TreeOverview    TreeOverview           `json:"tree_overview"`
	DepthSim        []DepthSimilarityRow   `json:"depth_similarity"`
	ResourceChains  []ResourceChainRow     `json:"resource_chains"`
	ChainStability  ChainStability         `json:"chain_stability"`
	ProfileTotals   []ProfileTotalsRow     `json:"profile_totals"`
	ProfilePairs    []ProfilePairRow       `json:"profile_pairs"`
	RankBuckets     *RankBucketResult      `json:"rank_buckets,omitempty"`
	NodeTypeVolume  []NodeTypeVolumeRow    `json:"node_type_volume"`
	SimByDepth      []SimilarityByDepthRow `json:"similarity_by_depth"`
	ChildStats      ChildStats             `json:"child_stats"`
	SubframeImpact  SubframeImpact         `json:"subframe_impact"`
	PartyAppearance PartyAppearance        `json:"party_appearance"`
	UniqueNodes     UniqueNodesResult      `json:"unique_nodes"`
	CookieStudy     CookieStudyResult      `json:"cookie_study"`
	TrackingStudy   TrackingStudyResult    `json:"tracking_study"`
	Tests           exportTests            `json:"statistical_tests"`
	Stability       StabilityReport        `json:"stability"`
	StaticDynamic   StaticDynamicReport    `json:"static_dynamic"`
	Timing          TimingReport           `json:"timing"`
	SameConfig      SameConfigComparison   `json:"same_config"`

	// Report-only results, left out of the JSON bundle.
	DepthBreadth     *stats.Histogram2D      `json:"-"` // Fig. 1
	SimDist          SimilarityDistribution  `json:"-"` // Fig. 2
	TypeShares       []TypeShareBySimilarity `json:"-"` // Fig. 5: parent, then children
	TypeDepth        []TypeDepthRow          `json:"-"` // Fig. 7
	ChildrenByDepth  []ChildrenByDepthRow    `json:"-"` // Fig. 8
	PairwiseProfiles []string                `json:"-"`
	Pairwise         [][]float64             `json:"-"`
	Attribution      AttributionReport       `json:"-"`
	// RawTests keeps the test errors that Tests flattens to text, and
	// RankBucketsErr the rank-bucket error stripped from RankBuckets.
	RawTests       StatisticalTests `json:"-"`
	RankBucketsErr error            `json:"-"`
}

// The fixed parameters of the paper's derivations.
const (
	// ReferenceProfile is Table 6's reference and the interaction side of
	// the §4.4 Mann-Whitney test.
	ReferenceProfile = "Sim1"
	// SameConfigProfile is configured identically to ReferenceProfile
	// (§4.4).
	SameConfigProfile = "Sim2"
	// NoActionProfile is the profile without user interaction (§4.4, §5.2).
	NoActionProfile = "NoAction"
	// PageTimeoutMS is the page timeout the timing section counts
	// (Appendix C).
	PageTimeoutMS = 30_000
)

// exportTests flattens StatisticalTests' error fields into strings so the
// bundle marshals cleanly.
type exportTests struct {
	ChildrenVsSimilarity *stats.TestResult `json:"children_vs_similarity,omitempty"`
	InteractionDepth     *stats.TestResult `json:"interaction_depth,omitempty"`
	TypeEffect           *stats.TestResult `json:"type_effect,omitempty"`
	Errors               []string          `json:"errors,omitempty"`
}

// ExportOptions parameterizes Export.
type ExportOptions struct {
	// RankBoundaries enables the rank-bucket section.
	RankBoundaries []int
}

// Export computes every table and figure once; the JSON bundle, the text
// report and the CSV tables are all views of the result, which callers
// share and must not modify.
func (a *Analysis) Export(opts ExportOptions) *Export {
	e := &Export{
		CrawlSummary:    a.CrawlSummary(),
		TreeOverview:    a.TreeOverview(),
		DepthSim:        a.DepthSimilarityTable(),
		ResourceChains:  a.ResourceChainTable(),
		ChainStability:  a.ChainStability(),
		ProfileTotals:   a.ProfileTotals(),
		ProfilePairs:    a.ProfilePairTable(ReferenceProfile),
		NodeTypeVolume:  a.NodeTypeVolume(),
		SimByDepth:      a.SimilarityByDepth(),
		ChildStats:      a.ChildStats(),
		SubframeImpact:  a.SubframeImpact(),
		PartyAppearance: a.PartyAppearance(),
		UniqueNodes:     a.UniqueNodes(),
		CookieStudy:     a.CookieStudy(NoActionProfile),
		TrackingStudy:   a.TrackingStudy(),
		Stability:       a.Stability(),
		StaticDynamic:   a.StaticDynamic(),
		Timing:          a.Timing(PageTimeoutMS),
		SameConfig:      a.CompareSameConfig(ReferenceProfile, SameConfigProfile),

		DepthBreadth: a.DepthBreadthHistogram(),
		SimDist:      a.SimilarityDistribution(),
		TypeShares: []TypeShareBySimilarity{
			a.TypeSharesBySimilarity("parent", 8),
			a.TypeSharesBySimilarity("children", 8),
		},
		TypeDepth:       a.TypeDepthSimilarity(8),
		ChildrenByDepth: a.ChildrenByDepth(20, true),
		Attribution:     a.Attribution(),
	}
	e.PairwiseProfiles, e.Pairwise = a.ProfilePairwiseMatrix()
	if len(opts.RankBoundaries) > 0 {
		rb := a.RankBuckets(opts.RankBoundaries)
		// Error values do not marshal; surface them as text.
		if rb.TestError != nil {
			e.RankBucketsErr = rb.TestError
			e.Tests.Errors = append(e.Tests.Errors, "rank buckets: "+rb.TestError.Error())
			rb.TestError = nil
		}
		e.RankBuckets = &rb
	}
	tests := a.RunTests(ReferenceProfile, NoActionProfile)
	e.RawTests = tests
	if tests.ChildrenVsSimilarityErr == nil {
		r := tests.ChildrenVsSimilarity
		e.Tests.ChildrenVsSimilarity = &r
	} else {
		e.Tests.Errors = append(e.Tests.Errors, "wilcoxon: "+tests.ChildrenVsSimilarityErr.Error())
	}
	if tests.InteractionDepthErr == nil {
		r := tests.InteractionDepth
		e.Tests.InteractionDepth = &r
	} else {
		e.Tests.Errors = append(e.Tests.Errors, "mann-whitney: "+tests.InteractionDepthErr.Error())
	}
	if tests.TypeEffectErr == nil {
		r := tests.TypeEffect
		e.Tests.TypeEffect = &r
	} else {
		e.Tests.Errors = append(e.Tests.Errors, "kruskal-wallis: "+tests.TypeEffectErr.Error())
	}
	return e
}

// WriteJSON marshals the bundle with indentation.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}
