package treediff

import (
	"math/rand"
	"testing"

	"webmeasure/internal/tree"
)

func TestEdgeSimilarityFig6(t *testing.T) {
	trees := fig6Trees(t)
	got := Compare(trees).EdgeSimilarity()
	// Edges T1: F-a F-b F-c c-d d-e e-x e-y (7)
	//       T2: F-a F-c c-d d-e e-x e-y (6)
	//       T3: F-a F-b F-c c-d d-y (5)
	// J(T1,T2)=6/7, J(T1,T3)=4/8=1/2, J(T2,T3)=3/8.
	want := (6.0/7 + 0.5 + 3.0/8) / 3
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("EdgeSimilarity = %v, want %v", got, want)
	}
}

func TestEdgeSimilarityIdenticalTrees(t *testing.T) {
	trees := fig6Trees(t)
	if got := Compare([]*tree.Tree{trees[0], trees[0]}).EdgeSimilarity(); got != 1 {
		t.Errorf("identical trees should score 1, got %v", got)
	}
	if got := Compare(trees[:1]).EdgeSimilarity(); got != 1 {
		t.Errorf("single tree should score 1, got %v", got)
	}
}

func TestHammingSimilarityFig6(t *testing.T) {
	trees := fig6Trees(t)
	got := HammingSimilarity(trees)
	// Union of non-root keys: a b c d e x y (7).
	// T1 vs T2: b absent in T2 (disagree); others same parent → 6/7.
	// T1 vs T3: e,x absent in T3 (2 disagreements), y parent e vs d → 4/7.
	// T2 vs T3: b absent in T2 present in T3, e,x absent in T3, y parent
	// differs → agree on a,c,d → 3/7.
	want := (6.0/7 + 4.0/7 + 3.0/7) / 3
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("HammingSimilarity = %v, want %v", got, want)
	}
	if got := HammingSimilarity(trees[:1]); got != 1 {
		t.Errorf("single tree = %v, want 1", got)
	}
}

// TestWholeTreeScoresHideAttribution demonstrates why the paper prefers the
// node-level analysis: two tree sets with identical whole-tree scores can
// have completely different failure modes (missing nodes vs moved nodes),
// which only the per-node comparison distinguishes.
func TestWholeTreeScoresHideAttribution(t *testing.T) {
	// Set A: node e missing from the second tree.
	a1 := buildTree(t, "A1", [][2]string{
		{u("a"), rootURL}, {u("b"), rootURL}, {u("e"), u("a")},
	})
	a2 := buildTree(t, "A2", [][2]string{
		{u("a"), rootURL}, {u("b"), rootURL},
	})
	// Set B: node e present in both but re-parented.
	b1 := buildTree(t, "B1", [][2]string{
		{u("a"), rootURL}, {u("b"), rootURL}, {u("e"), u("a")},
	})
	b2 := buildTree(t, "B2", [][2]string{
		{u("a"), rootURL}, {u("b"), rootURL}, {u("e"), u("b")},
	})
	hamA := HammingSimilarity([]*tree.Tree{a1, a2})
	hamB := HammingSimilarity([]*tree.Tree{b1, b2})
	if hamA != hamB {
		t.Fatalf("setup broken: want equal whole-tree scores, got %v vs %v", hamA, hamB)
	}
	cmpA := Compare([]*tree.Tree{a1, a2})
	cmpB := Compare([]*tree.Tree{b1, b2})
	eA, eB := nodesByKey(cmpA)[u("e")], nodesByKey(cmpB)[u("e")]
	if eA.Presence == eB.Presence {
		t.Error("node-level presence should distinguish the sets")
	}
	if eB.SameParentEverywhere {
		t.Error("node-level parent tracking should flag the re-parenting")
	}
}

// Property: both whole-tree scores stay in [0,1] and equal 1 for
// duplicated trees, on randomly generated tree shapes.
func TestWholeTreeScoreProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		var trees []*tree.Tree
		for p := 0; p < 3; p++ {
			n := 3 + rng.Intn(12)
			var edges [][2]string
			names := []string{rootURL}
			for i := 0; i < n; i++ {
				child := u(name(trial*100 + i))
				parent := names[rng.Intn(len(names))]
				edges = append(edges, [2]string{child, parent})
				names = append(names, child)
			}
			trees = append(trees, buildTree(t, name(p), edges))
		}
		for _, score := range []float64{Compare(trees).EdgeSimilarity(), HammingSimilarity(trees)} {
			if score < 0 || score > 1 {
				t.Fatalf("score out of range: %v", score)
			}
		}
		dup := []*tree.Tree{trees[0], trees[0], trees[0]}
		if Compare(dup).EdgeSimilarity() != 1 || HammingSimilarity(dup) != 1 {
			t.Fatal("duplicated trees must score 1")
		}
	}
}

// Property: Compare's aggregates respect structural invariants on random
// tree sets.
func TestCompareInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		var trees []*tree.Tree
		shared := 4 + rng.Intn(8)
		for p := 0; p < 4; p++ {
			var edges [][2]string
			names := []string{rootURL}
			for i := 0; i < shared; i++ {
				child := u("s" + name(i))
				parent := names[rng.Intn(len(names))]
				// Shared nodes appear in most trees.
				if rng.Float64() < 0.8 {
					edges = append(edges, [2]string{child, parent})
					names = append(names, child)
				}
			}
			for i := 0; i < rng.Intn(4); i++ {
				edges = append(edges, [2]string{u("p" + name(p*10+i)), rootURL})
			}
			trees = append(trees, buildTree(t, name(p), edges))
		}
		cmp := Compare(trees)
		for _, ni := range cmp.Nodes {
			key := ni.Key
			if ni.Presence < 1 || ni.Presence > len(trees) {
				t.Fatalf("presence out of range for %s: %d", key, ni.Presence)
			}
			if ni.ChildSim < 0 || ni.ChildSim > 1 || ni.ParentSim < 0 || ni.ParentSim > 1 {
				t.Fatalf("similarities out of range for %s", key)
			}
			if ni.UniqueChains > ni.Presence {
				t.Fatalf("unique chains %d > presence %d", ni.UniqueChains, ni.Presence)
			}
			if ni.ChainEqualAll && ni.Presence != len(trees) {
				t.Fatalf("ChainEqualAll requires full presence")
			}
			present := 0
			for _, d := range ni.Depths {
				if d >= 0 {
					present++
				}
			}
			if present != ni.Presence {
				t.Fatalf("Depths inconsistent with Presence for %s", key)
			}
		}
	}
}
