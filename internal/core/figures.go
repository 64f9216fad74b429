package core

import (
	"sort"

	"webmeasure/internal/measurement"
	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
)

// DepthBreadthHistogram computes Fig. 1: the joint distribution of every
// vetted tree's depth (y) and breadth (x).
func (a *Analysis) DepthBreadthHistogram() *stats.Histogram2D {
	h := stats.NewHistogram2D()
	for _, pa := range a.pages {
		for _, t := range pa.Trees {
			h.Add(t.Breadth(), t.MaxDepth())
		}
	}
	return h
}

// SimilarityDistribution is Fig. 2: the distribution of per-node child and
// parent similarities.
type SimilarityDistribution struct {
	Children *stats.Histogram
	Parents  *stats.Histogram
}

// SimilarityDistribution computes Fig. 2 over all non-root nodes present in
// at least two trees.
func (a *Analysis) SimilarityDistribution() SimilarityDistribution {
	d := SimilarityDistribution{
		Children: stats.NewHistogram(0, 1, 10),
		Parents:  stats.NewHistogram(0, 1, 10),
	}
	a.eachNonRootNode(func(pa *PageAnalysis, ni *treediff.NodeInfo) {
		if ni.Presence < 2 {
			return
		}
		if ni.HasChildAnywhere {
			d.Children.Add(ni.ChildSim)
		}
		d.Parents.Add(ni.ParentSim)
	})
	return d
}

// NodeTypeVolumeRow is one depth bucket of Fig. 3.
type NodeTypeVolumeRow struct {
	Depth       string // "0".."6", "6+"
	FirstParty  float64
	ThirdParty  float64
	Tracking    float64
	NonTracking float64
	Nodes       int
}

// NodeTypeVolume computes Fig. 3: per depth (0..6, 6+ combined), the share
// of first-/third-party and tracking/non-tracking nodes. Node instances are
// counted per tree (volume, not distinct keys).
func (a *Analysis) NodeTypeVolume() []NodeTypeVolumeRow {
	const buckets = 8 // 0..6 and 6+
	var fp, tp, tr, nt, tot [buckets]int
	for _, pa := range a.pages {
		for _, t := range pa.Trees {
			for _, n := range t.Nodes() {
				b := n.Depth
				if b > 6 {
					b = 7
				}
				tot[b]++
				if n.Party == tree.FirstParty {
					fp[b]++
				} else {
					tp[b]++
				}
				if n.Tracking {
					tr[b]++
				} else {
					nt[b]++
				}
			}
		}
	}
	labels := []string{"0", "1", "2", "3", "4", "5", "6", "6+"}
	rows := make([]NodeTypeVolumeRow, buckets)
	for i := 0; i < buckets; i++ {
		rows[i].Depth = labels[i]
		rows[i].Nodes = tot[i]
		if tot[i] == 0 {
			continue
		}
		d := float64(tot[i])
		rows[i].FirstParty = float64(fp[i]) / d
		rows[i].ThirdParty = float64(tp[i]) / d
		rows[i].Tracking = float64(tr[i]) / d
		rows[i].NonTracking = float64(nt[i]) / d
	}
	return rows
}

// SimilarityByDepthRow is one depth bucket of Fig. 4.
type SimilarityByDepthRow struct {
	Depth     string // "0".."4", "4+"
	ChildSim  float64
	ParentSim float64
	Nodes     int
}

// SimilarityByDepth computes Fig. 4: mean child and parent similarity per
// depth, nodes deeper than four combined ("4+").
func (a *Analysis) SimilarityByDepth() []SimilarityByDepthRow {
	const buckets = 6
	childSums := make([][]float64, buckets)
	parentSums := make([][]float64, buckets)
	a.eachNonRootNode(func(pa *PageAnalysis, ni *treediff.NodeInfo) {
		if ni.Presence < 2 {
			return
		}
		b := int(ni.MeanDepth())
		if b >= buckets-1 {
			b = buckets - 1
		}
		if b < 0 {
			b = 0
		}
		if ni.HasChildAnywhere {
			childSums[b] = append(childSums[b], ni.ChildSim)
		}
		parentSums[b] = append(parentSums[b], ni.ParentSim)
	})
	labels := []string{"0", "1", "2", "3", "4", "4+"}
	rows := make([]SimilarityByDepthRow, buckets)
	for i := 0; i < buckets; i++ {
		rows[i].Depth = labels[i]
		rows[i].ChildSim = stats.Mean(childSums[i])
		rows[i].ParentSim = stats.Mean(parentSums[i])
		rows[i].Nodes = len(parentSums[i])
	}
	return rows
}

// TypeShareSeries is one resource type's series in Fig. 5: the share of
// the type among the nodes of pages falling into each page-similarity bin.
type TypeShareSeries struct {
	Type   measurement.ResourceType
	Shares []float64 // indexed by bin
}

// TypeShareBySimilarity is Fig. 5a (Kind == "parent") or 5b ("children").
type TypeShareBySimilarity struct {
	Kind     string
	BinEdges []float64 // len = bins+1, over [0,1]
	Series   []TypeShareSeries
	Pages    []int // pages per bin
}

// fig5Types are the resource types the paper plots.
var fig5Types = []measurement.ResourceType{
	measurement.TypeImage,
	measurement.TypeScript,
	measurement.TypeStylesheet,
	measurement.TypeXHR,
	measurement.TypeSubFrame,
}

// TypeSharesBySimilarity computes Fig. 5: pages are binned by the average
// parent (or child) similarity of their nodes; within each bin the relative
// share of the five most common resource types is reported.
func (a *Analysis) TypeSharesBySimilarity(kind string, bins int) TypeShareBySimilarity {
	out := TypeShareBySimilarity{Kind: kind}
	for i := 0; i <= bins; i++ {
		out.BinEdges = append(out.BinEdges, float64(i)/float64(bins))
	}
	counts := make([]map[measurement.ResourceType]int, bins)
	totals := make([]int, bins)
	pages := make([]int, bins)
	for i := range counts {
		counts[i] = map[measurement.ResourceType]int{}
	}
	for _, pa := range a.pages {
		var sims []float64
		for _, ni := range pa.Cmp.Nodes[1:] {
			if ni.Presence < 2 {
				continue
			}
			switch kind {
			case "parent":
				sims = append(sims, ni.ParentSim)
			default:
				if ni.HasChildAnywhere {
					sims = append(sims, ni.ChildSim)
				}
			}
		}
		if len(sims) == 0 {
			continue
		}
		avg := stats.Mean(sims)
		bin := int(avg * float64(bins))
		if bin >= bins {
			bin = bins - 1
		}
		pages[bin]++
		for _, ni := range pa.Cmp.Nodes[1:] {
			counts[bin][ni.Type] += ni.Presence
			totals[bin] += ni.Presence
		}
	}
	for _, ty := range fig5Types {
		series := TypeShareSeries{Type: ty, Shares: make([]float64, bins)}
		for b := 0; b < bins; b++ {
			if totals[b] > 0 {
				series.Shares[b] = float64(counts[b][ty]) / float64(totals[b])
			}
		}
		out.Series = append(out.Series, series)
	}
	out.Pages = pages
	return out
}

// SubframeImpact quantifies §4.2's strongest factor: pages with subframes
// are less similar than pages without.
type SubframeImpact struct {
	WithSubframes    int
	WithoutSubframes int
	ParentSimWith    float64
	ParentSimWithout float64
	ChildSimWith     float64
	ChildSimWithout  float64
}

// SubframeImpact computes the with/without-subframe page similarity split.
func (a *Analysis) SubframeImpact() SubframeImpact {
	var r SubframeImpact
	var pw, po, cw, co []float64
	for _, pa := range a.pages {
		hasFrame := false
		var parents, children []float64
		for _, ni := range pa.Cmp.Nodes[1:] {
			if ni.Type == measurement.TypeSubFrame {
				hasFrame = true
			}
			if ni.Presence < 2 {
				continue
			}
			parents = append(parents, ni.ParentSim)
			if ni.HasChildAnywhere {
				children = append(children, ni.ChildSim)
			}
		}
		if len(parents) == 0 {
			continue
		}
		if hasFrame {
			r.WithSubframes++
			pw = append(pw, stats.Mean(parents))
			cw = append(cw, stats.Mean(children))
		} else {
			r.WithoutSubframes++
			po = append(po, stats.Mean(parents))
			co = append(co, stats.Mean(children))
		}
	}
	r.ParentSimWith = stats.Mean(pw)
	r.ParentSimWithout = stats.Mean(po)
	r.ChildSimWith = stats.Mean(cw)
	r.ChildSimWithout = stats.Mean(co)
	return r
}

// TypeDepthRow is one (type, depth) cell of Fig. 7.
type TypeDepthRow struct {
	Type      measurement.ResourceType
	Depth     int
	ChildSim  float64
	ParentSim float64
	Nodes     int
}

// TypeDepthSimilarity computes Fig. 7 (Appendix G): mean child/parent
// similarity per resource type per depth. Depths above maxDepth are
// clamped into the top bucket.
func (a *Analysis) TypeDepthSimilarity(maxDepth int) []TypeDepthRow {
	type key struct {
		ty measurement.ResourceType
		d  int
	}
	type agg struct {
		child, parent []float64
	}
	m := map[key]*agg{}
	a.eachNonRootNode(func(pa *PageAnalysis, ni *treediff.NodeInfo) {
		if ni.Presence < 2 {
			return
		}
		d := int(ni.MeanDepth())
		if d > maxDepth {
			d = maxDepth
		}
		k := key{ni.Type, d}
		g := m[k]
		if g == nil {
			g = &agg{}
			m[k] = g
		}
		g.parent = append(g.parent, ni.ParentSim)
		if ni.HasChildAnywhere {
			g.child = append(g.child, ni.ChildSim)
		}
	})
	rows := make([]TypeDepthRow, 0, len(m))
	for k, g := range m {
		rows = append(rows, TypeDepthRow{
			Type:      k.ty,
			Depth:     k.d,
			ChildSim:  stats.Mean(g.child),
			ParentSim: stats.Mean(g.parent),
			Nodes:     len(g.parent),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Type != rows[j].Type {
			return rows[i].Type < rows[j].Type
		}
		return rows[i].Depth < rows[j].Depth
	})
	return rows
}

// ChildrenByDepthRow is one depth of Fig. 8 (Appendix E).
type ChildrenByDepthRow struct {
	Depth  int
	Mean   float64
	Median float64
	Q1, Q3 float64
	Max    float64
	Nodes  int
}

// ChildrenByDepth computes Fig. 8: the distribution of per-node child
// counts at each depth (per tree instance), depths above maxDepth combined.
// onlyWithChildren restricts to nodes with ≥1 child (the long-tail view of
// §4.2).
func (a *Analysis) ChildrenByDepth(maxDepth int, onlyWithChildren bool) []ChildrenByDepthRow {
	samples := make([][]float64, maxDepth+1)
	for _, pa := range a.pages {
		for _, t := range pa.Trees {
			for _, n := range t.Nodes() {
				c := len(n.Children)
				if onlyWithChildren && c == 0 {
					continue
				}
				d := n.Depth
				if d > maxDepth {
					d = maxDepth
				}
				samples[d] = append(samples[d], float64(c))
			}
		}
	}
	rows := make([]ChildrenByDepthRow, 0, maxDepth+1)
	for d, xs := range samples {
		if len(xs) == 0 {
			continue
		}
		s := stats.Summarize(xs)
		rows = append(rows, ChildrenByDepthRow{
			Depth:  d,
			Mean:   s.Mean,
			Median: s.Median,
			Q1:     stats.Quantile(xs, 0.25),
			Q3:     stats.Quantile(xs, 0.75),
			Max:    s.Max,
			Nodes:  len(xs),
		})
	}
	return rows
}

// ChildStats reports §4.2's per-node child-count headline numbers.
type ChildStats struct {
	// PerNode is the distribution of child counts over all node instances.
	PerNode stats.Summary
	// RootChildren is the distribution of depth-zero (visited page) child
	// counts.
	RootChildren stats.Summary
	// ShareLeafDeep is the share of nodes at depth ≥ 1 with ≤ 1 child.
	ShareLeafDeep float64
}

// ChildStats computes the child-count overview.
func (a *Analysis) ChildStats() ChildStats {
	var all, root []float64
	var deepN, deepLeafish int
	for _, pa := range a.pages {
		for _, t := range pa.Trees {
			for _, n := range t.Nodes() {
				c := float64(len(n.Children))
				all = append(all, c)
				if n.IsRoot() {
					root = append(root, c)
				} else {
					deepN++
					if len(n.Children) <= 1 {
						deepLeafish++
					}
				}
			}
		}
	}
	cs := ChildStats{
		PerNode:      stats.Summarize(all),
		RootChildren: stats.Summarize(root),
	}
	if deepN > 0 {
		cs.ShareLeafDeep = float64(deepLeafish) / float64(deepN)
	}
	return cs
}
