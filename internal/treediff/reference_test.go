package treediff

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
)

// The historical map-of-strings kernel, kept verbatim as the reference the
// interned int32 kernel must match bit-for-bit: both count the same
// (intersection, union) integers and divide once, so every similarity —
// floats included — is compared with ==, not a tolerance.

type refNode struct {
	childSim, parentSim float64
	sameParent          bool
	chainEqualAll       bool
	uniqueChains        int
}

func refFill(trees []*tree.Tree, ni *NodeInfo) refNode {
	var out refNode
	var childSets []map[string]bool
	parentSets := make([]map[string]bool, len(trees))
	chainByTree := make([]string, len(trees))
	out.sameParent = true
	var firstParent string
	haveParent := false
	for ti, t := range trees {
		n := t.Node(ni.Key)
		if n == nil {
			parentSets[ti] = nil
			continue
		}
		childSets = append(childSets, n.ChildKeys())
		ps := map[string]bool{}
		if n.Parent != nil {
			ps[n.Parent.Key] = true
			if !haveParent {
				firstParent, haveParent = n.Parent.Key, true
			} else if n.Parent.Key != firstParent {
				out.sameParent = false
			}
		}
		parentSets[ti] = ps
		chainByTree[ti] = chainString(n)
	}
	out.childSim = stats.PairwiseMeanJaccard(childSets)
	out.parentSim = stats.PairwiseMeanJaccard(parentSets)
	counts := map[string]int{}
	for _, ch := range chainByTree {
		if ch != "" {
			counts[ch]++
		}
	}
	out.chainEqualAll = ni.Presence == len(trees) && len(counts) == 1 && len(trees) > 0
	for _, ch := range chainByTree {
		if ch != "" && counts[ch] == 1 {
			out.uniqueChains++
		}
	}
	return out
}

// chainString is n's dependency chain as one comparable string — the keys
// from the root down to n, each followed by a NUL — from an independent
// walk up the Parent pointers.
func chainString(n *tree.Node) string {
	chain := ""
	for cur := n; cur != nil; cur = cur.Parent {
		chain = cur.Key + "\x00" + chain
	}
	return chain
}

func refDepthSimilarity(trees []*tree.Tree, c *Comparison, f DepthFilter) (float64, int) {
	maxDepth := 0
	for _, t := range trees {
		if d := t.MaxDepth(); d > maxDepth {
			maxDepth = d
		}
	}
	var sum, weight float64
	depths := 0
	for d := 1; d <= maxDepth; d++ {
		sets := make([]map[string]bool, len(trees))
		union := map[string]bool{}
		byKey := nodesByKey(c)
		for ti, t := range trees {
			set := map[string]bool{}
			for _, key := range treeKeysAtDepth(t, d) {
				ni := byKey[key]
				if ni != nil && f.admit(ni, len(trees)) {
					set[key] = true
					union[key] = true
				}
			}
			sets[ti] = set
		}
		if len(union) == 0 {
			continue
		}
		w := float64(len(union))
		if f.Unweighted {
			w = 1
		}
		sum += stats.PairwiseMeanJaccard(sets) * w
		weight += w
		depths++
	}
	if depths == 0 {
		return 1, 0
	}
	return sum / weight, depths
}

func refAllNodesSimilarity(trees []*tree.Tree) float64 {
	sets := make([]map[string]bool, len(trees))
	for ti, t := range trees {
		set := make(map[string]bool, t.NodeCount())
		for _, n := range t.Nodes() {
			if !n.IsRoot() {
				set[n.Key] = true
			}
		}
		sets[ti] = set
	}
	return stats.PairwiseMeanJaccard(sets)
}

func refPairwisePresence(a, b *tree.Tree) float64 {
	setA, setB := map[string]bool{}, map[string]bool{}
	for _, n := range a.Nodes() {
		setA[n.Key] = true
	}
	for _, n := range b.Nodes() {
		setB[n.Key] = true
	}
	return stats.Jaccard(setA, setB)
}

// refEdgeSimilarity is the edge score over (parent key, child key)
// strings, one string per edge, as it ran before it read the comparison's
// interned ids.
func refEdgeSimilarity(trees []*tree.Tree) float64 {
	sets := make([][]string, len(trees))
	for i, t := range trees {
		var edges []string
		for _, n := range t.Nodes() {
			if n.Parent != nil {
				edges = append(edges, n.Parent.Key+"\x00"+n.Key)
			}
		}
		slices.Sort(edges)
		sets[i] = edges
	}
	return stats.PairwiseMeanJaccardSorted(sets)
}

// TestEdgeSimilarityMatchesStringReference pins Comparison.EdgeSimilarity
// to the string kernel with exact float equality, on the Fig. 6 trees and
// on random tree sets, duplicated trees included.
func TestEdgeSimilarityMatchesStringReference(t *testing.T) {
	check := func(what string, trees []*tree.Tree) {
		t.Helper()
		if got, want := Compare(trees).EdgeSimilarity(), refEdgeSimilarity(trees); got != want {
			t.Fatalf("%s: EdgeSimilarity %v != reference %v", what, got, want)
		}
	}
	fig6 := fig6Trees(t)
	check("fig6", fig6)
	check("fig6 reversed", []*tree.Tree{fig6[2], fig6[1], fig6[0]})
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 300; iter++ {
		trees := randTrees(t, rng, 1+rng.Intn(5))
		check(fmt.Sprintf("iter %d", iter), trees)
		check(fmt.Sprintf("iter %d with a duplicate", iter), append(trees, trees[0]))
	}
}

// TestCompareMatchesMapReference pins the interned kernel to the map
// kernel on randomized tree populations: every per-node aggregate and
// every aggregate similarity must be byte-identical (exact float
// equality), so swapping kernels can never move a report by even one
// formatting digit.
func TestCompareMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 120; iter++ {
		trees := randTrees(t, rng, 1+rng.Intn(5))
		c := Compare(trees)
		for _, ni := range c.Nodes {
			key := ni.Key
			want := refFill(trees, ni)
			if ni.ChildSim != want.childSim {
				t.Fatalf("iter %d node %s: ChildSim %v != reference %v", iter, key, ni.ChildSim, want.childSim)
			}
			if ni.ParentSim != want.parentSim {
				t.Fatalf("iter %d node %s: ParentSim %v != reference %v", iter, key, ni.ParentSim, want.parentSim)
			}
			if ni.SameParentEverywhere != want.sameParent {
				t.Fatalf("iter %d node %s: SameParentEverywhere %v != reference %v", iter, key, ni.SameParentEverywhere, want.sameParent)
			}
			if ni.ChainEqualAll != want.chainEqualAll {
				t.Fatalf("iter %d node %s: ChainEqualAll %v != reference %v", iter, key, ni.ChainEqualAll, want.chainEqualAll)
			}
			if ni.UniqueChains != want.uniqueChains {
				t.Fatalf("iter %d node %s: UniqueChains %d != reference %d", iter, key, ni.UniqueChains, want.uniqueChains)
			}
		}
		if got, want := c.AllNodesSimilarity(), refAllNodesSimilarity(trees); got != want {
			t.Fatalf("iter %d: AllNodesSimilarity %v != reference %v", iter, got, want)
		}
		fp, tp := tree.FirstParty, tree.ThirdParty
		for _, f := range []DepthFilter{
			{}, {OnlyWithChildren: true}, {OnlyInAllTrees: true}, {Unweighted: true},
			{Party: &fp}, {Party: &tp}, {OnlyWithChildren: true, OnlyInAllTrees: true, Unweighted: true},
		} {
			gotSim, gotDepths := c.DepthSimilarity(f)
			wantSim, wantDepths := refDepthSimilarity(trees, c, f)
			if gotSim != wantSim || gotDepths != wantDepths {
				t.Fatalf("iter %d filter %+v: DepthSimilarity (%v, %d) != reference (%v, %d)",
					iter, f, gotSim, gotDepths, wantSim, wantDepths)
			}
		}
		for i := range trees {
			for j := range trees {
				if got, want := c.PairwisePresence(i, j), refPairwisePresence(trees[i], trees[j]); got != want {
					t.Fatalf("iter %d: PairwisePresence(%d,%d) %v != reference %v", iter, i, j, got, want)
				}
			}
		}
	}
}

// nodesByKey indexes a comparison's aggregates by key, for the lookups by
// URL that only tests make.
func nodesByKey(c *Comparison) map[string]*NodeInfo {
	m := make(map[string]*NodeInfo, len(c.Nodes))
	for _, ni := range c.Nodes {
		m[ni.Key] = ni
	}
	return m
}

// treeKeysAtDepth returns t's keys at depth d, ascending.
func treeKeysAtDepth(t *tree.Tree, d int) []string {
	var out []string
	for _, n := range t.Nodes() { // (depth, key) order
		if n.Depth == d {
			out = append(out, n.Key)
		}
	}
	return out
}

// TestComparisonIDViews pins the id-ordered node table and the per-tree
// views by id to the trees' own keys: Nodes holds each key of the union
// once, tree 0's root first; TreeIDs and TreeNode give exactly a tree's
// keys and nodes; DepthJaccard scores a depth as the Jaccard of the two
// trees' key strings there.
func TestComparisonIDViews(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 120; iter++ {
		trees := randTrees(t, rng, 1+rng.Intn(5))
		c := Compare(trees)
		if c.Nodes[0].Key != trees[0].Root.Key {
			t.Fatalf("iter %d: Nodes[0] is %s, not tree 0's root %s", iter, c.Nodes[0].Key, trees[0].Root.Key)
		}
		union := map[string]bool{}
		maxDepth := 0
		for _, tr := range trees {
			for _, n := range tr.Nodes() {
				union[n.Key] = true
			}
			maxDepth = max(maxDepth, tr.MaxDepth())
		}
		if byKey := nodesByKey(c); len(byKey) != len(c.Nodes) || len(byKey) != len(union) {
			t.Fatalf("iter %d: %d aggregates, %d distinct keys, %d keys in the trees", iter, len(c.Nodes), len(byKey), len(union))
		}
		for ti, tr := range trees {
			ids := c.TreeIDs(ti)
			if !slices.IsSorted(ids) || len(ids) != tr.NodeCount() {
				t.Fatalf("iter %d tree %d: ids %v for %d nodes", iter, ti, ids, tr.NodeCount())
			}
			for id, ni := range c.Nodes {
				want := tr.Node(ni.Key)
				if got := c.TreeNode(ti, int32(id)); got != want {
					t.Fatalf("iter %d tree %d: TreeNode(%d) = %v, want the tree's node for %s", iter, ti, id, got, ni.Key)
				}
				if (want != nil) != slices.Contains(ids, int32(id)) {
					t.Fatalf("iter %d tree %d: TreeIDs and the tree disagree on %s", iter, ti, ni.Key)
				}
			}
			for tj := range trees {
				for d := 1; d <= maxDepth+1; d++ {
					want := stats.JaccardSorted(treeKeysAtDepth(tr, d), treeKeysAtDepth(trees[tj], d))
					if got := c.DepthJaccard(ti, tj, d); got != want {
						t.Fatalf("iter %d: DepthJaccard(%d,%d,%d) %v != %v", iter, ti, tj, d, got, want)
					}
				}
			}
		}
	}
}

// TestCompareConcurrentDepthSimilarity exercises the pooled scratch from
// several goroutines on several comparisons at once — the job-server usage
// pattern — so `go test -race` guards the pool's isolation.
func TestCompareConcurrentDepthSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cmps := make([]*Comparison, 8)
	wants := make([]float64, len(cmps))
	for i := range cmps {
		cmps[i] = Compare(randTrees(t, rng, 2+rng.Intn(3)))
		wants[i], _ = cmps[i].DepthSimilarity(DepthFilter{})
	}
	done := make(chan error, 4*len(cmps))
	for w := 0; w < 4; w++ {
		go func() {
			for i, c := range cmps {
				sim, _ := c.DepthSimilarity(DepthFilter{})
				if sim != wants[i] {
					done <- fmt.Errorf("comparison %d: concurrent sim %v != %v", i, sim, wants[i])
					continue
				}
				done <- nil
			}
		}()
	}
	for i := 0; i < 4*len(cmps); i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
