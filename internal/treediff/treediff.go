// Package treediff implements the paper's cross-comparison of the
// dependency trees different profiles observed for the same page (§3.2,
// Appendix D): the horizontal analysis (which siblings/children appear,
// recursively from depth one), the vertical analysis (dependency chains
// and the parents of a node), per-depth node-set similarity, and the
// supporting per-node bookkeeping the result tables aggregate.
//
// The set machinery runs on an interned core: Compare resolves every node
// key to a dense int32 once, and all similarities are linear merges over
// sorted id slices carved from per-comparison arenas (internal/stats'
// sorted kernel). Dependency chains are compared by class, not by string:
// walking each tree parents-first, Compare gives every (tree, key) pair
// the index of the first tree holding the key under the same parent key
// and parent class, so two trees share a chain exactly when they share a
// class. The results are bit-identical to the historical map-of-strings
// kernel over root-to-node chain strings — TestCompareMatchesMapReference
// pins that — while the hot loop allocates per comparison instead of per
// node.
package treediff

import (
	"slices"
	"sync"

	"webmeasure/internal/measurement"
	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
)

// NodeInfo aggregates one node key's appearance across the compared trees.
type NodeInfo struct {
	Key  string
	Type measurement.ResourceType
	// Party/Tracking as first observed (stable across trees in practice:
	// both derive from the URL).
	Party    tree.Party
	Tracking bool

	// Presence is the number of trees containing the node.
	Presence int
	// Depths is the node's depth per tree, -1 where absent.
	Depths []int
	// SameDepth is true when the node sits at the same depth in every tree
	// that contains it.
	SameDepth bool

	// ChildSim is the mean pairwise Jaccard of the node's child sets over
	// the trees containing it (horizontal analysis).
	ChildSim float64
	// ParentSim is the mean pairwise Jaccard of the node's parent sets
	// over *all* trees (absent trees contribute the empty set), matching
	// the Appendix D worked example.
	ParentSim float64
	// SameParentEverywhere is true when the node is loaded by the same
	// parent in every tree containing it.
	SameParentEverywhere bool

	// NumChildren is the per-tree child count (-1 where absent).
	NumChildren []int
	// MaxChildren is the largest per-tree child count.
	MaxChildren int
	// HasChildAnywhere is true when the node has ≥1 child in some tree.
	HasChildAnywhere bool

	// ChainEqualAll is true when the node appears in all trees with an
	// identical dependency chain.
	ChainEqualAll bool
	// UniqueChains counts the trees whose chain for this node appears in
	// no other tree (the "unique dependency chain" population of §4.2).
	UniqueChains int
}

// MeanDepth returns the node's average depth over the trees containing it.
func (ni *NodeInfo) MeanDepth() float64 {
	sum, n := 0, 0
	for _, d := range ni.Depths {
		if d >= 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Comparison is the cross-comparison of one page's trees.
type Comparison struct {
	Trees []*tree.Tree
	// Nodes maps every key observed in any tree (including the root) to
	// its aggregate.
	Nodes map[string]*NodeInfo

	// Interned core. Every key in any tree gets a dense id (first-seen
	// order); all set similarities run over ascending []int32 views carved
	// from arenas sized once per comparison, by the union of keys.
	infoByID []*NodeInfo          // id → aggregate
	ints     []int                // every id's Depths then NumChildren, 2·len(Trees) per id
	nodeID   map[*tree.Node]int32 // node → id (no string hashing in fill)
	nodeByID [][]*tree.Node       // per tree: id → node, nil where absent
	treeKeys [][]int32            // per tree: ascending ids, root included
	nonRoot  [][]int32            // per tree: ascending ids, that tree's root excluded
	byDepth  [][][]int32          // per tree, per depth ≥ 1: ascending ids
	maxDepth int
}

// Compare cross-compares the trees of one page. At least two trees are
// required for the similarities to be meaningful; with fewer, similarities
// default to 1 (self-consistency).
func Compare(trees []*tree.Tree) *Comparison {
	total, largest, maxDepth := 0, 0, 0
	for _, t := range trees {
		n := t.NodeCount()
		total += n
		largest = max(largest, n)
		maxDepth = max(maxDepth, t.MaxDepth())
	}
	// Intern every key first, so every per-key table below is sized by
	// the union, which is at least the largest tree and usually far below
	// the summed node count: the trees of one page share most keys.
	ids := make(map[string]int32, largest)
	nodeID := make(map[*tree.Node]int32, total)
	for _, t := range trees {
		for _, n := range t.Nodes() {
			id, ok := ids[n.Key]
			if !ok {
				id = int32(len(ids))
				ids[n.Key] = id
			}
			nodeID[n] = id
		}
	}
	nt, nk := len(trees), len(ids)
	c := &Comparison{
		Trees:    trees,
		Nodes:    make(map[string]*NodeInfo, nk),
		infoByID: make([]*NodeInfo, nk),
		ints:     make([]int, 2*nt*nk),
		nodeID:   nodeID,
		nodeByID: make([][]*tree.Node, nt),
		treeKeys: make([][]int32, nt),
		nonRoot:  make([][]int32, nt),
		byDepth:  make([][][]int32, nt),
		maxDepth: maxDepth,
	}
	for i := range c.ints {
		c.ints[i] = -1
	}
	// classes[id*nt+ti] is the chain class of key id in tree ti, -1 where
	// the tree lacks the key.
	classes := make([]int32, nt*nk)
	for i := range classes {
		classes[i] = -1
	}
	infoArena := make([]NodeInfo, nk)
	for id := range infoArena {
		ni := &infoArena[id]
		off := 2 * nt * id
		ni.Depths = c.ints[off : off+nt : off+nt]
		ni.NumChildren = c.ints[off+nt : off+2*nt : off+2*nt]
		c.infoByID[id] = ni
	}

	for ti, t := range trees {
		nodes := t.Nodes()
		lookup := make([]*tree.Node, nk)
		tks := make([]int32, 0, len(nodes))
		depths := make([][]int32, maxDepth+1)
		for _, n := range nodes {
			id := nodeID[n]
			ni := c.infoByID[id]
			if ni.Presence == 0 { // the key's first node
				ni.Key, ni.Type, ni.Party, ni.Tracking = n.Key, n.Type, n.Party, n.Tracking
				c.Nodes[n.Key] = ni
			}
			lookup[id] = n
			classes[id*int32(nt)+int32(ti)] = c.chainClass(classes, ti, id, n)
			ni.Presence++
			ni.Depths[ti] = n.Depth
			nc := len(n.Children)
			ni.NumChildren[ti] = nc
			if nc > ni.MaxChildren {
				ni.MaxChildren = nc
			}
			if nc > 0 {
				ni.HasChildAnywhere = true
			}
			tks = append(tks, id)
			if d := n.Depth; d >= 1 {
				depths[d] = append(depths[d], id)
			}
		}
		slices.Sort(tks)
		nr := make([]int32, 0, len(tks))
		rootID := int32(-1)
		if t.Root != nil {
			rootID = nodeID[t.Root]
		}
		for _, id := range tks {
			if id != rootID {
				nr = append(nr, id)
			}
		}
		for d := range depths {
			slices.Sort(depths[d])
		}
		c.nodeByID[ti] = lookup
		c.treeKeys[ti] = tks
		c.nonRoot[ti] = nr
		c.byDepth[ti] = depths
	}

	s := &fillScratch{
		childSets:   make([][]int32, 0, nt),
		parentIDs:   make([]int32, nt),
		classCounts: make([]int32, nt),
	}
	// id order is deterministic (first-seen over the sorted node lists),
	// unlike the map-range order the pre-interning kernel used; fill only
	// writes to its own NodeInfo either way.
	for id, ni := range c.infoByID {
		c.fill(int32(id), ni, classes[id*nt:(id+1)*nt], s)
	}
	return c
}

// chainClass returns the chain class of n, the node of key id in tree ti:
// the first tree tj ≤ ti whose node for the key has the same parent key
// under the same parent class (or is a root, like n). Trees are walked in
// order and each tree parents-first, so every class this reads is set.
// By induction over depth, two nodes of one key share a class exactly
// when their root-to-node chains are equal.
func (c *Comparison) chainClass(classes []int32, ti int, id int32, n *tree.Node) int32 {
	nt := int32(len(c.Trees))
	pid := int32(-1)
	if n.Parent != nil {
		pid = c.nodeID[n.Parent]
	}
	for tj := 0; tj < ti; tj++ {
		m := c.nodeByID[tj][id]
		if m == nil {
			continue
		}
		if pid < 0 {
			if m.Parent == nil {
				return int32(tj)
			}
			continue
		}
		if m.Parent != nil && m.Parent == c.nodeByID[tj][pid] &&
			classes[pid*nt+int32(tj)] == classes[pid*nt+int32(ti)] {
			return int32(tj)
		}
	}
	return int32(ti)
}

// fillScratch is the per-Compare reusable state of fill: child-set arena,
// parent ids and per-class tree counts, sized once for all nodes.
type fillScratch struct {
	childSets   [][]int32
	childArena  []int32
	parentIDs   []int32 // -1 = empty parent set (absent tree or root)
	classCounts []int32 // trees per chain class (a class is a tree index)
}

// fill computes the per-node similarity aggregates; classes holds the
// key's chain class per tree.
func (c *Comparison) fill(id int32, ni *NodeInfo, classes []int32, s *fillScratch) {
	// Same depth across containing trees?
	ni.SameDepth = true
	first := -1
	for _, d := range ni.Depths {
		if d < 0 {
			continue
		}
		if first < 0 {
			first = d
		} else if d != first {
			ni.SameDepth = false
		}
	}

	nt := len(c.Trees)
	s.childSets = s.childSets[:0]
	buf := s.childArena[:0]
	sameParent := true
	firstParent := int32(-1)
	haveParent := false

	for ti := range c.Trees {
		n := c.nodeByID[ti][id]
		if n == nil {
			s.parentIDs[ti] = -1
			continue
		}
		// Child set of the containing tree (horizontal), sorted in place
		// inside the arena.
		start := len(buf)
		buf = c.appendChildIDs(buf, n)
		s.childSets = append(s.childSets, buf[start:len(buf):len(buf)])
		// Parent set (vertical): 0-or-1 keys, so an id with -1 for "empty"
		// replaces the historical single-element map.
		pid := c.parentID(n)
		s.parentIDs[ti] = pid
		if pid >= 0 {
			if !haveParent {
				firstParent, haveParent = pid, true
			} else if pid != firstParent {
				sameParent = false
			}
		}
	}
	s.childArena = buf[:0]

	ni.ChildSim = stats.PairwiseMeanJaccardSorted(s.childSets)
	// ParentSim over *all* trees: J of two 0-or-1 element sets is the
	// equality indicator (∅ vs ∅ = 1, ∅ vs {p} = 0, {p} vs {q} = [p == q]),
	// so the pairwise mean needs no sets at all.
	if nt < 2 {
		ni.ParentSim = 1
	} else {
		agree, pairs := 0, 0
		for i := 0; i < nt; i++ {
			for j := i + 1; j < nt; j++ {
				if s.parentIDs[i] == s.parentIDs[j] {
					agree++
				}
				pairs++
			}
		}
		ni.ParentSim = float64(agree) / float64(pairs)
	}
	ni.SameParentEverywhere = sameParent

	// Chain bookkeeping: trees share a chain exactly when they share a
	// class, so count the trees per class.
	clear(s.classCounts)
	for _, cl := range classes {
		if cl >= 0 {
			s.classCounts[cl]++
		}
	}
	distinct := 0
	ni.UniqueChains = 0
	for _, n := range s.classCounts {
		if n > 0 {
			distinct++
		}
		if n == 1 {
			ni.UniqueChains++
		}
	}
	ni.ChainEqualAll = ni.Presence == nt && distinct == 1 && nt > 0
}

// appendChildIDs appends the ids of n's children to dst and sorts the
// appended run: n's child-key set in the comparison's id space.
func (c *Comparison) appendChildIDs(dst []int32, n *tree.Node) []int32 {
	start := len(dst)
	for _, ch := range n.Children {
		dst = append(dst, c.nodeID[ch])
	}
	slices.Sort(dst[start:])
	return dst
}

// parentID is the id of n's parent, -1 for a root: the node's 0-or-1
// element parent set.
func (c *Comparison) parentID(n *tree.Node) int32 {
	if n.Parent == nil {
		return -1
	}
	return c.nodeID[n.Parent]
}

// DepthFilter selects the node population for per-depth similarity
// (Table 3's rows).
type DepthFilter struct {
	// OnlyWithChildren keeps nodes that have ≥1 child in some tree,
	// excluding depth-one content that cannot introduce dynamics (§3.2).
	OnlyWithChildren bool
	// OnlyInAllTrees keeps nodes present in every tree.
	OnlyInAllTrees bool
	// Party restricts to one loading context.
	Party *tree.Party
	// Unweighted averages the per-depth Jaccard values equally instead of
	// weighting by each depth's population — the ablation for the
	// weighting decision documented on DepthSimilarity.
	Unweighted bool
}

func (f DepthFilter) admit(ni *NodeInfo, total int) bool {
	if f.OnlyWithChildren && !ni.HasChildAnywhere {
		return false
	}
	if f.OnlyInAllTrees && ni.Presence != total {
		return false
	}
	if f.Party != nil && ni.Party != *f.Party {
		return false
	}
	return true
}

// depthScratch is the reusable state of one DepthSimilarity call: the
// per-id admission table, the filtered per-tree sets and their arena, and
// a generation-stamped union counter. Pooled so concurrent calls stay
// safe and steady-state calls stay allocation-free.
type depthScratch struct {
	admit []bool
	seen  []int32
	gen   int32
	sets  [][]int32
	arena []int32
}

var depthScratchPool = sync.Pool{New: func() any { return new(depthScratch) }}

// DepthSimilarity computes the paper's per-depth node-set similarity: for
// every depth d ≥ 1 occupied in some tree, the pairwise mean Jaccard of the
// admitted keys at d, averaged over depths weighted by each depth's node
// population (the union of admitted keys), so a depth holding forty nodes
// counts accordingly more than a sparse deep level. It returns
// (similarity, number of depths compared); with no admissible depth the
// similarity is 1.
func (c *Comparison) DepthSimilarity(f DepthFilter) (float64, int) {
	nt := len(c.Trees)
	nk := len(c.infoByID)
	s := depthScratchPool.Get().(*depthScratch)
	defer depthScratchPool.Put(s)
	if cap(s.admit) < nk {
		s.admit = make([]bool, nk)
		s.seen = make([]int32, nk)
	}
	s.admit = s.admit[:nk]
	s.seen = s.seen[:nk]
	if cap(s.sets) < nt {
		s.sets = make([][]int32, nt)
	}
	s.sets = s.sets[:nt]
	for id, ni := range c.infoByID {
		s.admit[id] = f.admit(ni, nt)
	}

	var sum, weight float64
	depths := 0
	for d := 1; d <= c.maxDepth; d++ {
		// The union count rides along while filtering: a generation stamp
		// per id replaces the per-depth union map.
		s.gen++
		union := 0
		buf := s.arena[:0]
		for ti := range c.Trees {
			var src []int32
			if d < len(c.byDepth[ti]) {
				src = c.byDepth[ti][d]
			}
			start := len(buf)
			for _, id := range src {
				if s.admit[id] {
					buf = append(buf, id)
					if s.seen[id] != s.gen {
						s.seen[id] = s.gen
						union++
					}
				}
			}
			s.sets[ti] = buf[start:len(buf):len(buf)]
		}
		s.arena = buf[:0]
		if union == 0 {
			continue
		}
		w := float64(union)
		if f.Unweighted {
			w = 1
		}
		sum += stats.PairwiseMeanJaccardSorted(s.sets) * w
		weight += w
		depths++
	}
	if depths == 0 {
		return 1, 0
	}
	return sum / weight, depths
}

// AllNodesSimilarity is the whole-tree node-set pairwise mean Jaccard (the
// Appendix D "all nodes in all trees" figure), read off the interned
// per-tree id sets built by Compare.
func (c *Comparison) AllNodesSimilarity() float64 {
	return stats.PairwiseMeanJaccardSorted(c.nonRoot)
}

// EachPair is the two-tree view of the comparison. For every key other
// than tree i's root that trees i and j both hold, it calls fn with the
// key's node in each tree, the Jaccard of their child-key sets and their
// parent similarity: 1 when both nodes have the same parent (or neither
// has one), else 0. These are the ChildSim and ParentSim that
// Compare(Trees[i], Trees[j]) computes for the key, read off this
// comparison's ids instead of a second interning. Keys arrive in id
// order.
func (c *Comparison) EachPair(i, j int, fn func(a, b *tree.Node, childSim, parentSim float64)) {
	rootID := int32(-1)
	if r := c.Trees[i].Root; r != nil {
		rootID = c.nodeID[r]
	}
	ki, kj := c.treeKeys[i], c.treeKeys[j]
	var buf []int32
	for x, y := 0, 0; x < len(ki) && y < len(kj); {
		switch id := ki[x]; {
		case id < kj[y]:
			x++
		case id > kj[y]:
			y++
		default:
			x++
			y++
			if id == rootID {
				continue
			}
			a, b := c.nodeByID[i][id], c.nodeByID[j][id]
			buf = c.appendChildIDs(buf[:0], a)
			na := len(buf)
			buf = c.appendChildIDs(buf, b)
			parentSim := 0.0
			if c.parentID(a) == c.parentID(b) {
				parentSim = 1
			}
			fn(a, b, stats.JaccardSorted(buf[:na], buf[na:]), parentSim)
		}
	}
}

// PairwisePresence reports, for two tree indices, the share of the union
// of their node keys present in both — the §4 "comparing two different
// profiles, 48% of the underlying data varies" statistic is 1 minus this.
func (c *Comparison) PairwisePresence(i, j int) float64 {
	return stats.JaccardSorted(c.treeKeys[i], c.treeKeys[j])
}
