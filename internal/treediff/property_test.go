package treediff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"webmeasure/internal/tree"
)

// Property-based suite for the cross-comparison: randomized tree shapes
// with a fixed seed check the invariants every Comparison must satisfy —
// similarities in [0,1], perfect scores for identical trees, symmetry of
// the pairwise presence — independent of any worked example.

// randEdges grows a random tree of n nodes: each node's parent is drawn
// among the root and the previously added nodes, so parents always
// precede children as buildTree requires.
func randEdges(rng *rand.Rand, n int) [][2]string {
	edges := make([][2]string, 0, n)
	names := []string{rootURL}
	for i := 0; i < n; i++ {
		child := u(fmt.Sprintf("n%d", i))
		parent := names[rng.Intn(len(names))]
		edges = append(edges, [2]string{child, parent})
		names = append(names, child)
	}
	return edges
}

func randTrees(t *testing.T, rng *rand.Rand, count int) []*tree.Tree {
	trees := make([]*tree.Tree, count)
	for i := range trees {
		trees[i] = buildTree(t, fmt.Sprintf("P%d", i+1), randEdges(rng, 1+rng.Intn(12)))
	}
	return trees
}

func TestCompareSimilaritiesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 150; iter++ {
		c := Compare(randTrees(t, rng, 2+rng.Intn(4)))
		inUnit := func(what string, v float64) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s out of [0,1]: %v", what, v)
			}
		}
		inUnit("AllNodesSimilarity", c.AllNodesSimilarity())
		for key, ni := range c.Nodes {
			inUnit("ChildSim of "+key, ni.ChildSim)
			inUnit("ParentSim of "+key, ni.ParentSim)
			if ni.Presence < 1 || ni.Presence > len(c.Trees) {
				t.Fatalf("presence of %s = %d with %d trees", key, ni.Presence, len(c.Trees))
			}
		}
		for _, f := range []DepthFilter{{}, {OnlyWithChildren: true}, {OnlyInAllTrees: true}, {Unweighted: true}} {
			sim, _ := c.DepthSimilarity(f)
			inUnit(fmt.Sprintf("DepthSimilarity %+v", f), sim)
		}
	}
}

// TestCompareIdenticalTreesPerfect: cloning one random shape across all
// profiles must score 1 everywhere — any deviation would mean the
// comparison invents differences.
func TestCompareIdenticalTreesPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 100; iter++ {
		edges := randEdges(rng, 1+rng.Intn(12))
		trees := make([]*tree.Tree, 2+rng.Intn(4))
		for i := range trees {
			trees[i] = buildTree(t, fmt.Sprintf("P%d", i+1), edges)
		}
		c := Compare(trees)
		if got := c.AllNodesSimilarity(); got != 1 {
			t.Fatalf("identical trees AllNodesSimilarity = %v", got)
		}
		if sim, _ := c.DepthSimilarity(DepthFilter{}); sim != 1 {
			t.Fatalf("identical trees DepthSimilarity = %v", sim)
		}
		for key, ni := range c.Nodes {
			if ni.Presence != len(trees) {
				t.Fatalf("node %s presence %d of %d", key, ni.Presence, len(trees))
			}
			if ni.ChildSim != 1 || ni.ParentSim != 1 {
				t.Fatalf("node %s sims = %v/%v", key, ni.ChildSim, ni.ParentSim)
			}
			if !ni.SameDepth || !ni.SameParentEverywhere || !ni.ChainEqualAll {
				t.Fatalf("node %s consistency flags wrong: %+v", key, ni)
			}
			if ni.UniqueChains != 0 {
				t.Fatalf("node %s has %d unique chains in identical trees", key, ni.UniqueChains)
			}
		}
		for i := 0; i < len(trees); i++ {
			for j := 0; j < len(trees); j++ {
				if p := c.PairwisePresence(i, j); p != 1 {
					t.Fatalf("identical trees PairwisePresence(%d,%d) = %v", i, j, p)
				}
			}
		}
	}
}

func TestPairwisePresenceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		c := Compare(randTrees(t, rng, 2+rng.Intn(4)))
		for i := 0; i < len(c.Trees); i++ {
			for j := 0; j < len(c.Trees); j++ {
				a, b := c.PairwisePresence(i, j), c.PairwisePresence(j, i)
				if a != b {
					t.Fatalf("presence not symmetric: (%d,%d)=%v (%d,%d)=%v", i, j, a, j, i, b)
				}
				if a < 0 || a > 1 {
					t.Fatalf("presence out of [0,1]: %v", a)
				}
				if i == j && a != 1 {
					t.Fatalf("self presence = %v", a)
				}
			}
		}
	}
}

// TestEachPairMatchesTwoTreeCompare: the pair view of a many-tree
// comparison must visit, for every ordered pair of trees, exactly the
// keys a two-tree Compare of that pair finds in both (its first tree's
// root aside), with the same child and parent similarities, and nodes
// whose depths, children and party give that Compare's mean depth,
// child flag and party — everything Table 6 reads.
func TestEachPairMatchesTwoTreeCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for iter := 0; iter < 150; iter++ {
		c := Compare(randTrees(t, rng, 2+rng.Intn(4)))
		for i, ti := range c.Trees {
			for j, tj := range c.Trees {
				if i == j {
					continue
				}
				pair := Compare([]*tree.Tree{ti, tj})
				rootKey := ti.Root.Key
				want := 0
				for key, ni := range pair.Nodes {
					if key != rootKey && ni.Presence == 2 {
						want++
					}
				}
				got := 0
				c.EachPair(i, j, func(a, b *tree.Node, childSim, parentSim float64) {
					got++
					ni := pair.Nodes[a.Key]
					switch {
					case a.Key == rootKey || ni == nil || ni.Presence != 2:
						t.Fatalf("EachPair(%d,%d) visited %s, which the pair compare does not hold in both trees", i, j, a.Key)
					case a != ti.Node(a.Key) || b != tj.Node(a.Key):
						t.Fatalf("EachPair(%d,%d) passed foreign nodes for %s", i, j, a.Key)
					case childSim != ni.ChildSim || parentSim != ni.ParentSim:
						t.Fatalf("EachPair(%d,%d) %s: child %v parent %v, pair compare %v %v", i, j, a.Key, childSim, parentSim, ni.ChildSim, ni.ParentSim)
					case float64(a.Depth+b.Depth)/2 != ni.MeanDepth(),
						(len(a.Children) > 0 || len(b.Children) > 0) != ni.HasChildAnywhere,
						a.Party != ni.Party:
						t.Fatalf("EachPair(%d,%d) %s: nodes disagree with the pair compare's %+v", i, j, a.Key, ni)
					}
				})
				if got != want {
					t.Fatalf("EachPair(%d,%d) visited %d keys, pair compare holds %d in both trees", i, j, got, want)
				}
			}
		}
	}
}

// TestCompareDepthsConsistent: every recorded depth must match the
// observed presence bookkeeping — -1 exactly where the tree lacks the
// node, non-negative elsewhere.
func TestCompareDepthsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for iter := 0; iter < 100; iter++ {
		c := Compare(randTrees(t, rng, 2+rng.Intn(4)))
		for key, ni := range c.Nodes {
			if len(ni.Depths) != len(c.Trees) || len(ni.NumChildren) != len(c.Trees) {
				t.Fatalf("node %s slices sized %d/%d for %d trees",
					key, len(ni.Depths), len(ni.NumChildren), len(c.Trees))
			}
			present := 0
			for ti, d := range ni.Depths {
				node := c.Trees[ti].Node(key)
				if (d >= 0) != (node != nil) {
					t.Fatalf("node %s depth %d disagrees with tree %d", key, d, ti)
				}
				if d >= 0 {
					present++
					if ni.NumChildren[ti] != len(node.Children) {
						t.Fatalf("node %s child count mismatch in tree %d", key, ti)
					}
				} else if ni.NumChildren[ti] != -1 {
					t.Fatalf("node %s absent in tree %d but child count %d", key, ti, ni.NumChildren[ti])
				}
			}
			if present != ni.Presence {
				t.Fatalf("node %s presence %d but %d trees contain it", key, ni.Presence, present)
			}
		}
	}
}

// TestCompareSharedSubtreeMonotone is the metamorphic check: grafting the
// same extra child under the root of every tree never lowers the
// whole-tree similarity.
func TestCompareSharedSubtreeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 100; iter++ {
		perTree := make([][][2]string, 2+rng.Intn(3))
		for i := range perTree {
			perTree[i] = randEdges(rng, 1+rng.Intn(10))
		}
		build := func(extra bool) *Comparison {
			trees := make([]*tree.Tree, len(perTree))
			for i, edges := range perTree {
				if extra {
					edges = append(append([][2]string{}, edges...), [2]string{u("shared-extra"), rootURL})
				}
				trees[i] = buildTree(t, fmt.Sprintf("P%d", i+1), edges)
			}
			return Compare(trees)
		}
		before := build(false).AllNodesSimilarity()
		after := build(true).AllNodesSimilarity()
		if after < before-1e-12 {
			t.Fatalf("shared subtree lowered similarity: %v -> %v", before, after)
		}
	}
}
