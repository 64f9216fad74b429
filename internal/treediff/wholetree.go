package treediff

import (
	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
)

// The paper chooses node-level comparison over whole-tree distances
// ("We choose not to compute similarities of entire trees (e.g., using the
// Hamming distance) ... as it provides deeper insights into the changes in
// the relationships between the nodes", §3.2). The scores below implement
// the rejected alternative so the choice can be evaluated: a single score
// per tree pair, with no per-node attribution.

// EdgeSimilarity treats each tree as its set of (parent, child) edges and
// returns the pairwise-mean Jaccard over all trees. A coarse whole-tree
// score: sensitive to both presence and attribution changes, but unable to
// say *which* nodes moved. Each edge is the pair of the comparison's
// interned ids packed into one int64, child id first: a key has one parent
// per tree, so a walk over the tree's ascending ids yields its edges
// sorted. Distinct keys have distinct ids, so every pair of trees counts
// the same intersection and union as over (parent key, child key) strings.
func (c *Comparison) EdgeSimilarity() float64 {
	total := 0
	for _, ids := range c.treeKeys {
		total += len(ids)
	}
	arena := make([]int64, 0, total)
	sets := make([][]int64, len(c.Trees))
	for ti, ids := range c.treeKeys {
		start := len(arena)
		for _, id := range ids {
			if pid := c.parentID(c.nodeByID[ti][id]); pid >= 0 {
				arena = append(arena, int64(id)<<32|int64(pid))
			}
		}
		sets[ti] = arena[start:len(arena):len(arena)]
	}
	return stats.PairwiseMeanJaccardSorted(sets)
}

// HammingSimilarity aligns all trees on the union of node keys and scores
// each pair by the share of positions that agree — a node position agrees
// when both trees either lack the key or contain it *with the same parent*
// (the vectorized Hamming view of a labelled tree). Returns the pairwise
// mean over all tree pairs; 1 for fewer than two trees.
func HammingSimilarity(trees []*tree.Tree) float64 {
	if len(trees) < 2 {
		return 1
	}
	union := map[string]bool{}
	for _, t := range trees {
		for _, n := range t.Nodes() {
			if !n.IsRoot() {
				union[n.Key] = true
			}
		}
	}
	if len(union) == 0 {
		return 1
	}
	parentOf := func(t *tree.Tree, key string) (string, bool) {
		n := t.Node(key)
		if n == nil || n.Parent == nil {
			return "", n != nil
		}
		return n.Parent.Key, true
	}
	var sum float64
	pairs := 0
	for i := 0; i < len(trees); i++ {
		for j := i + 1; j < len(trees); j++ {
			agree := 0
			for key := range union {
				pi, oki := parentOf(trees[i], key)
				pj, okj := parentOf(trees[j], key)
				if oki == okj && pi == pj {
					agree++
				}
			}
			sum += float64(agree) / float64(len(union))
			pairs++
		}
	}
	return sum / float64(pairs)
}
