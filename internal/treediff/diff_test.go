package treediff

import (
	"math"
	"strings"
	"testing"

	"webmeasure/internal/tree"
)

func TestComputeDiffFig6(t *testing.T) {
	trees := fig6Trees(t)
	d := ComputeDiff(trees[0], trees[2]) // T1 vs T3
	// T1: a,b,c,d,e(x,y under e); T3: a,b,c,d,y(under d).
	if len(d.OnlyA) != 2 || d.OnlyA[0] != u("e") || d.OnlyA[1] != u("x") {
		t.Errorf("OnlyA = %v", d.OnlyA)
	}
	if len(d.OnlyB) != 0 {
		t.Errorf("OnlyB = %v", d.OnlyB)
	}
	if len(d.Moved) != 1 || d.Moved[0].Key != u("y") {
		t.Fatalf("Moved = %+v", d.Moved)
	}
	m := d.Moved[0]
	if m.ParentA != u("e") || m.ParentB != u("d") || m.DepthA != 4 || m.DepthB != 3 {
		t.Errorf("move detail: %+v", m)
	}
	if d.Stable != 4 { // a, b, c, d
		t.Errorf("Stable = %d, want 4", d.Stable)
	}
	if d.Identical() {
		t.Error("differing trees reported identical")
	}
}

func TestComputeDiffIdentical(t *testing.T) {
	trees := fig6Trees(t)
	d := ComputeDiff(trees[0], trees[0])
	if !d.Identical() || d.Stable != 7 {
		t.Errorf("self-diff wrong: %s", d.Summary())
	}
}

func TestDiffDepthChanged(t *testing.T) {
	// Same parent sets, but an ancestor moved: c is a child of b in tree
	// two instead of a, so d (child of c in both) changes depth... build:
	// T1: root→a, a→c, c→d.  T2: root→a, root→b? Simplest depth change
	// with same parent: impossible unless an ancestor moved; construct:
	// T1: root→a, a→b, b→c.  T2: root→b(!), b→c. Then c's parent is b in
	// both, but depth differs (3 vs 2); b itself is "moved".
	t1 := buildTree(t, "D1", [][2]string{
		{u("a"), rootURL}, {u("b"), u("a")}, {u("c"), u("b")},
	})
	t2 := buildTree(t, "D2", [][2]string{
		{u("b"), rootURL}, {u("c"), u("b")},
	})
	d := ComputeDiff(t1, t2)
	if len(d.Moved) != 1 || d.Moved[0].Key != u("b") {
		t.Fatalf("Moved = %+v", d.Moved)
	}
	if len(d.DepthChanged) != 1 || d.DepthChanged[0].Key != u("c") {
		t.Fatalf("DepthChanged = %+v", d.DepthChanged)
	}
	if d.DepthChanged[0].DepthA != 3 || d.DepthChanged[0].DepthB != 2 {
		t.Errorf("depths: %+v", d.DepthChanged[0])
	}
}

func TestDiffWrite(t *testing.T) {
	trees := fig6Trees(t)
	d := ComputeDiff(trees[0], trees[2])
	var sb strings.Builder
	d.Write(&sb, 1)
	out := sb.String()
	for _, want := range []string{"diff P1 vs P3", "only in P1", "moved:", "… 1 more"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	// Unlimited output holds every key.
	sb.Reset()
	d.Write(&sb, 0)
	if !strings.Contains(sb.String(), u("x")) {
		t.Error("unlimited output truncated")
	}
}

// TestDiffConsistentWithComparison: nodes the pairwise Comparison scores as
// same-parent must never appear in Diff.Moved, and presence mismatches
// must land in OnlyA/OnlyB.
func TestDiffConsistentWithComparison(t *testing.T) {
	trees := fig6Trees(t)
	d := ComputeDiff(trees[0], trees[1])
	cmp := Compare([]*tree.Tree{trees[0], trees[1]})
	movedSet := map[string]bool{}
	for _, m := range d.Moved {
		movedSet[m.Key] = true
	}
	for _, ni := range cmp.Nodes[1:] {
		key := ni.Key
		if ni.Presence == 2 && ni.SameParentEverywhere && movedSet[key] {
			t.Errorf("node %s same-parent in Comparison but moved in Diff", key)
		}
		if ni.Presence == 1 {
			found := false
			for _, k := range append(append([]string{}, d.OnlyA...), d.OnlyB...) {
				if k == key {
					found = true
				}
			}
			if !found {
				t.Errorf("single-presence node %s missing from Only sets", key)
			}
		}
	}
}

func TestDepthSimilarityWeighting(t *testing.T) {
	// Build trees where a populous stable depth-1 coexists with a sparse
	// volatile depth-2: weighting must pull the score toward the stable
	// mass, the unweighted variant toward the volatile level.
	mk := func(profile, deepChild string) *tree.Tree {
		edges := [][2]string{}
		for i := 0; i < 10; i++ {
			edges = append(edges, [2]string{u("stable" + name(i)), rootURL})
		}
		edges = append(edges, [2]string{u(deepChild), u("stable" + name(0))})
		return buildTree(t, profile, edges)
	}
	trees := []*tree.Tree{mk("W1", "volatileA"), mk("W2", "volatileB")}
	cmp := Compare(trees)
	weighted, _ := cmp.DepthSimilarity(DepthFilter{})
	unweighted, _ := cmp.DepthSimilarity(DepthFilter{Unweighted: true})
	// Depth 1: J = 10/10 = 1 (11 nodes incl. one volatile? no — volatile
	// children are at depth 2). Depth 2: J = 0. Weighted: (1*10 + 0*2)/12;
	// unweighted: (1+0)/2.
	if wWant := 10.0 / 12; math.Abs(weighted-wWant) > 1e-12 {
		t.Errorf("weighted = %v, want %v", weighted, wWant)
	}
	if math.Abs(unweighted-0.5) > 1e-12 {
		t.Errorf("unweighted = %v, want 0.5", unweighted)
	}
}

func TestConsensus(t *testing.T) {
	trees := fig6Trees(t)
	// Presences: a=3, b=2, c=3, d=3, e=2, x=2, y=3.
	cons := Consensus(trees, 3)
	keys := map[string]ConsensusNode{}
	for _, c := range cons {
		keys[c.Key] = c
	}
	for _, want := range []string{u("a"), u("c"), u("d"), u("y")} {
		if _, ok := keys[want]; !ok {
			t.Errorf("consensus(3) missing %s", want)
		}
	}
	for _, not := range []string{u("b"), u("e"), u("x")} {
		if _, ok := keys[not]; ok {
			t.Errorf("consensus(3) must exclude %s", not)
		}
	}
	// y: parents e(2), d(1) → majority e with 2/3 agreement.
	y := keys[u("y")]
	if y.Parent != u("e") || math.Abs(y.ParentAgreement-2.0/3) > 1e-12 {
		t.Errorf("y consensus parent: %+v", y)
	}
	// d: parent c in all three → perfect agreement.
	if d := keys[u("d")]; d.Parent != u("c") || d.ParentAgreement != 1 {
		t.Errorf("d consensus parent: %+v", d)
	}

	// Quorum 2 admits the rest.
	cons2 := Consensus(trees, 2)
	if len(cons2) != 7 {
		t.Errorf("consensus(2) size = %d, want 7", len(cons2))
	}
	// Default quorum = strict majority (2 of 3).
	if got := Consensus(trees, 0); len(got) != len(cons2) {
		t.Errorf("default quorum size = %d, want %d", len(got), len(cons2))
	}
	// Sorted output.
	for i := 1; i < len(cons2); i++ {
		if cons2[i].Key <= cons2[i-1].Key {
			t.Fatal("consensus not sorted")
		}
	}
}

func TestConsensusShare(t *testing.T) {
	trees := fig6Trees(t)
	all := ConsensusShare(trees, 1) // union
	maj := ConsensusShare(trees, 2) // 7/7 of the union present ≥2
	strict := ConsensusShare(trees, 3)
	if all != 1 {
		t.Errorf("quorum-1 share = %v, want 1", all)
	}
	if maj != 1 {
		t.Errorf("quorum-2 share = %v (every fig6 node is in ≥2 trees)", maj)
	}
	if math.Abs(strict-4.0/7) > 1e-12 {
		t.Errorf("quorum-3 share = %v, want 4/7", strict)
	}
	if ConsensusShare(nil, 1) != 1 {
		t.Error("no trees should report 1")
	}
}
