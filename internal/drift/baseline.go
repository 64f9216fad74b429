// Package drift is the longitudinal monitoring layer: it snapshots a
// completed analysis into a schema-versioned per-epoch baseline, computes
// deltas between baselines (new/vanished third parties, tracking-share
// drift, tree-shape drift via the treediff kernels, similarity drift),
// and evaluates a configurable alert rule engine over each delta.
//
// The paper measures setup-induced differences at one point in time;
// "Beyond the Front Page" shows the third-party ecosystem itself drifts
// across repeated crawls. The deterministic seeded epochs of the site
// generator make that drift reproducible, so every artifact this package
// produces — baseline JSON, delta JSON, CSV rows, alert sequences — is
// byte-identical for a given (config, epoch) regardless of worker counts
// or crawl buffering. Two rules keep it that way: all set-valued fields
// are sorted slices, and every float mean is accumulated by
// stats.Summarize (which sorts before accumulating).
package drift

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"webmeasure/internal/core"
	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
	"webmeasure/internal/urlutil"
)

// SchemaVersion is the baseline/delta wire schema. Bump on any change to
// the JSON shape; decode rejects mismatches so a monitor never diffs
// baselines written by an incompatible build.
const SchemaVersion = 1

// Meta identifies the experiment a baseline was measured under. Diff
// refuses to compare baselines whose identities disagree on anything but
// the epoch: a delta between different experiment configs would read as
// ecosystem drift when it is actually setup difference — the exact
// confusion the paper warns about.
type Meta struct {
	SchemaVersion int      `json:"schema_version"`
	Epoch         int      `json:"epoch"`
	Seed          int64    `json:"seed"`
	Sites         int      `json:"sites"`
	TrancoSize    int      `json:"tranco_size"`
	PagesPerSite  int      `json:"pages_per_site"`
	Profiles      []string `json:"profiles"`
	FaultProfile  string   `json:"fault_profile,omitempty"`
}

// sameExperiment reports whether two metas describe the same experiment
// (everything but the epoch).
func (m Meta) sameExperiment(o Meta) bool {
	if m.Seed != o.Seed || m.Sites != o.Sites || m.TrancoSize != o.TrancoSize ||
		m.PagesPerSite != o.PagesPerSite || m.FaultProfile != o.FaultProfile ||
		len(m.Profiles) != len(o.Profiles) {
		return false
	}
	for i := range m.Profiles {
		if m.Profiles[i] != o.Profiles[i] {
			return false
		}
	}
	return true
}

// SiteBaseline is one site's slice of a baseline: its third-party and
// tracker domain sets plus the reference-profile tree of every vetted
// page, stored in wire form so a later Diff can rerun the treediff
// kernels across epochs.
type SiteBaseline struct {
	Site         string   `json:"site"`
	VettedPages  int      `json:"vetted_pages"`
	ThirdParties []string `json:"third_parties,omitempty"`
	Trackers     []string `json:"trackers,omitempty"`
	// Trees holds the reference-profile tree per vetted page, sorted by
	// page URL.
	Trees []tree.Record `json:"trees,omitempty"`
}

// Baseline is one epoch's persisted measurement summary.
type Baseline struct {
	Meta Meta `json:"meta"`

	SitesAnalyzed int `json:"sites_analyzed"`
	VettedPages   int `json:"vetted_pages"`

	// TrackingShare is the share of unique nodes classified as tracking
	// requests (§5.3).
	TrackingShare float64 `json:"tracking_share"`

	// Tree-shape statistics (Table 2 means).
	MeanNodes   float64 `json:"mean_nodes"`
	MeanDepth   float64 `json:"mean_depth"`
	MeanBreadth float64 `json:"mean_breadth"`

	// MeanChildSim is the horizontal similarity summary (✚: nodes with at
	// least one child anywhere); MeanParentSim the vertical one (✻: nodes
	// at mean depth ≥ 2) — the ProfilePairTable populations.
	MeanChildSim  float64 `json:"mean_child_sim"`
	MeanParentSim float64 `json:"mean_parent_sim"`

	// DepthSimilarityAll is the mean per-page depth-weighted node-set
	// similarity over all nodes (Table 3 row 1).
	DepthSimilarityAll float64 `json:"depth_similarity_all"`

	// Global third-party and tracker domain sets (eTLD+1, sorted).
	ThirdParties []string `json:"third_parties,omitempty"`
	Trackers     []string `json:"trackers,omitempty"`

	// SiteBaselines is sorted by site.
	SiteBaselines []*SiteBaseline `json:"site_baselines"`
}

// Snapshot condenses a completed analysis into a baseline. meta.Epoch
// identifies the epoch; meta.SchemaVersion is overwritten with the
// package's current version. The reference-profile tree stored per page
// is the tree of the first profile in the analysis order present on that
// page.
func Snapshot(a *core.Analysis, meta Meta) *Baseline {
	meta.SchemaVersion = SchemaVersion
	b := &Baseline{Meta: meta}

	globalTP := make(map[string]bool)
	globalTR := make(map[string]bool)
	perSite := make(map[string]*SiteBaseline)
	siteTP := make(map[string]map[string]bool)
	siteTR := make(map[string]map[string]bool)

	var childSims, parentSims, depthSims []float64

	for _, pa := range a.Pages() {
		b.VettedPages++
		site := pa.Key.Site
		sb := perSite[site]
		if sb == nil {
			sb = &SiteBaseline{Site: site}
			perSite[site] = sb
			siteTP[site] = make(map[string]bool)
			siteTR[site] = make(map[string]bool)
		}
		sb.VettedPages++

		// Reference tree: the first analysis profile present on the page.
		// Pages arrive in (site, page URL) order, so appending keeps the
		// per-site tree list sorted by page URL.
		for _, prof := range a.Profiles() {
			if t := pa.TreeFor(prof); t != nil {
				sb.Trees = append(sb.Trees, t.Record())
				break
			}
		}

		for _, ni := range pa.Cmp.Nodes[1:] {
			if ni.Party == tree.ThirdParty {
				if dom := urlutil.Site(ni.Key); dom != "" {
					globalTP[dom] = true
					siteTP[site][dom] = true
				}
			}
			if ni.Tracking {
				if dom := urlutil.Site(ni.Key); dom != "" {
					globalTR[dom] = true
					siteTR[site][dom] = true
				}
			}
			if ni.HasChildAnywhere {
				childSims = append(childSims, ni.ChildSim)
			}
			if ni.MeanDepth() >= 2 {
				parentSims = append(parentSims, ni.ParentSim)
			}
		}
		if sim, depths := pa.Cmp.DepthSimilarity(treediff.DepthFilter{}); depths > 0 {
			depthSims = append(depthSims, sim)
		}
	}

	b.SitesAnalyzed = len(perSite)
	b.TrackingShare = a.TrackingStudy().TrackingShare
	ov := a.TreeOverview()
	b.MeanNodes = ov.Nodes.Mean
	b.MeanDepth = ov.Depth.Mean
	b.MeanBreadth = ov.Breadth.Mean
	b.MeanChildSim = stats.Summarize(childSims).Mean
	b.MeanParentSim = stats.Summarize(parentSims).Mean
	b.DepthSimilarityAll = stats.Summarize(depthSims).Mean
	b.ThirdParties = sortedKeys(globalTP)
	b.Trackers = sortedKeys(globalTR)

	sites := make([]string, 0, len(perSite))
	for site := range perSite {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		sb := perSite[site]
		sb.ThirdParties = sortedKeys(siteTP[site])
		sb.Trackers = sortedKeys(siteTR[site])
		b.SiteBaselines = append(b.SiteBaselines, sb)
	}
	return b
}

// sortedKeys converts a string set to its sorted slice (nil when empty,
// so JSON omits the field rather than writing []).
func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Encode renders the baseline as indented JSON with a trailing newline.
// Struct field order is fixed and all collections are sorted, so the
// bytes are deterministic.
func (b *Baseline) Encode() ([]byte, error) { return encodeIndented(b) }

// encodePool recycles the buffer encodeIndented writes the compact form
// into; an encode that finds one there does not regrow it by doubling.
// The buffer is reset before it goes back and holds only bytes.
var encodePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeIndented renders v as the bytes a json.Encoder writes with
// SetIndent("", "  ") and SetEscapeHTML(false): the compact form with its
// trailing newline, indented by json.Indent into a buffer it grows once
// from the compact length. json.Marshal would not do: it escapes &, <
// and >, and generated query keys hold &.
func encodeIndented(v any) ([]byte, error) {
	compact := encodePool.Get().(*bytes.Buffer)
	defer func() {
		compact.Reset()
		encodePool.Put(compact)
	}()
	enc := json.NewEncoder(compact)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, compact.Bytes(), "", "  "); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// DecodeBaseline parses and validates a baseline. It rejects unknown
// schema versions, out-of-order or duplicate sites, unsorted domain
// sets, and tree records that fail to rebuild — corruption should
// surface at load time, not as a silent wrong delta epochs later.
func DecodeBaseline(data []byte) (*Baseline, error) {
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("drift: baseline: %w", err)
	}
	if b.Meta.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("drift: baseline schema %d, want %d", b.Meta.SchemaVersion, SchemaVersion)
	}
	if err := checkSorted("third_parties", b.ThirdParties); err != nil {
		return nil, err
	}
	if err := checkSorted("trackers", b.Trackers); err != nil {
		return nil, err
	}
	lastSite := ""
	for i, sb := range b.SiteBaselines {
		if sb == nil {
			return nil, fmt.Errorf("drift: baseline: null site entry %d", i)
		}
		if sb.Site == "" {
			return nil, fmt.Errorf("drift: baseline: site entry %d has no site", i)
		}
		if i > 0 && sb.Site <= lastSite {
			return nil, fmt.Errorf("drift: baseline: site %q out of order after %q", sb.Site, lastSite)
		}
		lastSite = sb.Site
		if err := checkSorted(sb.Site+" third_parties", sb.ThirdParties); err != nil {
			return nil, err
		}
		if err := checkSorted(sb.Site+" trackers", sb.Trackers); err != nil {
			return nil, err
		}
		lastPage := ""
		for j, rec := range sb.Trees {
			if j > 0 && rec.PageURL <= lastPage {
				return nil, fmt.Errorf("drift: baseline: site %q tree %q out of order after %q", sb.Site, rec.PageURL, lastPage)
			}
			lastPage = rec.PageURL
			if _, err := rec.Tree(); err != nil {
				return nil, fmt.Errorf("drift: baseline: site %q: %w", sb.Site, err)
			}
		}
	}
	return &b, nil
}

// checkSorted rejects unsorted or duplicated set slices.
func checkSorted(what string, xs []string) error {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return fmt.Errorf("drift: baseline: %s not sorted/unique at %q", what, xs[i])
		}
	}
	return nil
}
