package treediff

import (
	"context"
	"math"
	"sort"
	"testing"

	"webmeasure/internal/crawler"
	"webmeasure/internal/measurement"
	"webmeasure/internal/tranco"
	"webmeasure/internal/tree"
	"webmeasure/internal/webgen"
)

const rootURL = "https://fig6.example/"

// buildTree constructs a tree from (child, parent) edges using synthetic
// call stacks; parents must precede children.
func buildTree(t *testing.T, profile string, edges [][2]string) *tree.Tree {
	t.Helper()
	v := &measurement.Visit{
		Site: "fig6.example", PageURL: rootURL, Profile: profile, Success: true,
		Requests: []measurement.Request{{URL: rootURL, Type: measurement.TypeMainFrame}},
	}
	for _, e := range edges {
		req := measurement.Request{URL: e[0], Type: measurement.TypeScript}
		if e[1] != rootURL {
			req.CallStack = []measurement.StackFrame{{FuncName: "f", URL: e[1]}}
		}
		v.Requests = append(v.Requests, req)
	}
	tr, err := (&tree.Builder{}).Build(v)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func u(name string) string { return "https://fig6.example/" + name }

// fig6Trees builds the Appendix D example:
//
//	T1: F→{a,b,c}, c→d, d→e, e→{x,y}
//	T2: F→{a,c},   c→d, d→e, e→{x,y}
//	T3: F→{a,b,c}, c→d, d→y        (e absent)
func fig6Trees(t *testing.T) []*tree.Tree {
	t1 := buildTree(t, "P1", [][2]string{
		{u("a"), rootURL}, {u("b"), rootURL}, {u("c"), rootURL},
		{u("d"), u("c")}, {u("e"), u("d")}, {u("x"), u("e")}, {u("y"), u("e")},
	})
	t2 := buildTree(t, "P2", [][2]string{
		{u("a"), rootURL}, {u("c"), rootURL},
		{u("d"), u("c")}, {u("e"), u("d")}, {u("x"), u("e")}, {u("y"), u("e")},
	})
	t3 := buildTree(t, "P3", [][2]string{
		{u("a"), rootURL}, {u("b"), rootURL}, {u("c"), rootURL},
		{u("d"), u("c")}, {u("y"), u("d")},
	})
	return []*tree.Tree{t1, t2, t3}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestFig6DepthOneSimilarity(t *testing.T) {
	c := Compare(fig6Trees(t))
	// Horizontal, depth one: ({a,b,c},{a,c},{a,b,c}) → (2/3 + 1 + 2/3)/3 ≈ .77
	root := nodesByKey(c)[rootURL]
	want := (2.0/3 + 1 + 2.0/3) / 3
	if !almost(root.ChildSim, want) {
		t.Errorf("depth-one similarity = %v, want %v", root.ChildSim, want)
	}
}

func TestFig6ParentOfE(t *testing.T) {
	c := Compare(fig6Trees(t))
	e := nodesByKey(c)[u("e")]
	if e == nil {
		t.Fatal("node e missing")
	}
	// Parents: {d}, {d}, absent → (1 + 0 + 0)/3 ≈ .3 (Appendix D).
	if !almost(e.ParentSim, 1.0/3) {
		t.Errorf("parent similarity of e = %v, want 1/3", e.ParentSim)
	}
	if e.Presence != 2 || !e.SameDepth || !e.SameParentEverywhere {
		t.Errorf("e aggregate wrong: %+v", e)
	}
}

func TestFig6AllNodesSimilarity(t *testing.T) {
	c := Compare(fig6Trees(t))
	// Sets: {a,b,c,d,e,x,y}, {a,c,d,e,x,y}, {a,b,c,d,y} →
	// (6/7 + 5/7 + 4/7)/3 = 5/7.
	if got := c.AllNodesSimilarity(); !almost(got, 5.0/7) {
		t.Errorf("all-nodes similarity = %v, want 5/7", got)
	}
}

func TestPresenceAndDepths(t *testing.T) {
	c := Compare(fig6Trees(t))
	a := nodesByKey(c)[u("a")]
	if a.Presence != 3 || !a.SameDepth || a.Depths[0] != 1 {
		t.Errorf("a: %+v", a)
	}
	b := nodesByKey(c)[u("b")]
	if b.Presence != 2 {
		t.Errorf("b presence = %d", b.Presence)
	}
	y := nodesByKey(c)[u("y")]
	if y.Presence != 3 || y.SameDepth {
		t.Errorf("y should differ in depth: %+v", y)
	}
	if got := y.MeanDepth(); !almost(got, (4.0+4+3)/3) {
		t.Errorf("y mean depth = %v", got)
	}
	if nodesByKey(c)[rootURL].Presence != 3 {
		t.Error("root must be present everywhere")
	}
}

func TestChains(t *testing.T) {
	c := Compare(fig6Trees(t))
	d := nodesByKey(c)[u("d")]
	if !d.ChainEqualAll {
		t.Errorf("d has identical chains in all trees: %+v", d)
	}
	if d.UniqueChains != 0 {
		t.Errorf("d unique chains = %d", d.UniqueChains)
	}
	y := nodesByKey(c)[u("y")]
	if y.ChainEqualAll {
		t.Error("y chains differ (T3 loads y from d)")
	}
	// y's chain F/c/d/e/y appears in T1 and T2 (shared); F/c/d/y only in
	// T3 → one unique chain.
	if y.UniqueChains != 1 {
		t.Errorf("y unique chains = %d, want 1", y.UniqueChains)
	}
	e := nodesByKey(c)[u("e")]
	if e.ChainEqualAll {
		t.Error("e absent from T3 cannot have ChainEqualAll")
	}
}

func TestSameParentEverywhere(t *testing.T) {
	c := Compare(fig6Trees(t))
	if !nodesByKey(c)[u("d")].SameParentEverywhere {
		t.Error("d always loaded by c")
	}
	if nodesByKey(c)[u("y")].SameParentEverywhere {
		t.Error("y loaded by e and d")
	}
}

func TestChildCounts(t *testing.T) {
	c := Compare(fig6Trees(t))
	e := nodesByKey(c)[u("e")]
	if e.MaxChildren != 2 || !e.HasChildAnywhere {
		t.Errorf("e children: %+v", e)
	}
	if e.NumChildren[2] != -1 {
		t.Errorf("absent tree must report -1: %v", e.NumChildren)
	}
	x := nodesByKey(c)[u("x")]
	if x.HasChildAnywhere || x.MaxChildren != 0 {
		t.Errorf("x is a leaf: %+v", x)
	}
}

func TestDepthSimilarityFilters(t *testing.T) {
	c := Compare(fig6Trees(t))
	all, depths := c.DepthSimilarity(DepthFilter{})
	if depths != 4 {
		t.Fatalf("depths compared = %d, want 4", depths)
	}
	if all <= 0 || all > 1 {
		t.Fatalf("similarity out of range: %v", all)
	}
	inAll, _ := c.DepthSimilarity(DepthFilter{OnlyInAllTrees: true})
	if inAll < all {
		t.Errorf("nodes-in-all-trees similarity (%v) should be ≥ all-nodes (%v)", inAll, all)
	}
	withChildren, _ := c.DepthSimilarity(DepthFilter{OnlyWithChildren: true})
	if withChildren <= 0 || withChildren > 1 {
		t.Errorf("with-children similarity out of range: %v", withChildren)
	}
	fp := tree.FirstParty
	fpSim, fpDepths := c.DepthSimilarity(DepthFilter{Party: &fp})
	if fpDepths == 0 || fpSim <= 0 {
		t.Errorf("first-party similarity degenerate: %v %d", fpSim, fpDepths)
	}
	// Degenerate: filter admitting nothing yields (1, 0).
	tp := tree.ThirdParty
	tpSim, tpDepths := c.DepthSimilarity(DepthFilter{Party: &tp})
	if tpDepths != 0 || tpSim != 1 {
		t.Errorf("no third-party nodes here: got %v %d", tpSim, tpDepths)
	}
}

// TestChainsDifferAboveTheParent: key y has parent x in both trees, but x
// hangs under a in one and under b in the other, so y's chains differ two
// levels up. Matching parent keys alone would call them equal; the parent
// class keeps them apart.
func TestChainsDifferAboveTheParent(t *testing.T) {
	trees := []*tree.Tree{
		buildTree(t, "P1", [][2]string{{u("a"), rootURL}, {u("b"), rootURL}, {u("x"), u("a")}, {u("y"), u("x")}}),
		buildTree(t, "P2", [][2]string{{u("a"), rootURL}, {u("b"), rootURL}, {u("x"), u("b")}, {u("y"), u("x")}}),
		buildTree(t, "P3", [][2]string{{u("a"), rootURL}, {u("b"), rootURL}, {u("x"), u("a")}, {u("y"), u("x")}}),
	}
	c := Compare(trees[:2])
	y := nodesByKey(c)[u("y")]
	if !y.SameParentEverywhere {
		t.Fatal("y must have the same parent key in both trees")
	}
	if y.UniqueChains != 2 || y.ChainEqualAll {
		t.Errorf("y: %d unique chains, ChainEqualAll %v; want 2, false", y.UniqueChains, y.ChainEqualAll)
	}
	// A third tree repeating the first one's chain leaves only the second
	// tree's chain unique.
	c = Compare(trees)
	if y := nodesByKey(c)[u("y")]; y.UniqueChains != 1 || y.ChainEqualAll {
		t.Errorf("three trees: y has %d unique chains, ChainEqualAll %v; want 1, false", y.UniqueChains, y.ChainEqualAll)
	}
	if a := nodesByKey(c)[u("a")]; a.UniqueChains != 0 || !a.ChainEqualAll {
		t.Errorf("a: %d unique chains, ChainEqualAll %v; want 0, true", a.UniqueChains, a.ChainEqualAll)
	}
}

func TestPairwisePresence(t *testing.T) {
	c := Compare(fig6Trees(t))
	// T1 vs T2 (non-root nodes + root? PairwisePresence uses all keys incl.
	// root): T1 has 8 keys, T2 7, shared 7 → 7/8.
	if got := c.PairwisePresence(0, 1); !almost(got, 7.0/8) {
		t.Errorf("pairwise presence T1,T2 = %v, want 7/8", got)
	}
	if got := c.PairwisePresence(0, 0); got != 1 {
		t.Errorf("self presence = %v", got)
	}
}

func TestSingleTreeDegenerate(t *testing.T) {
	trees := fig6Trees(t)[:1]
	c := Compare(trees)
	for _, ni := range c.Nodes {
		if ni.ChildSim != 1 || ni.ParentSim != 1 {
			t.Errorf("single-tree similarities must be 1: %+v", ni)
		}
		if !ni.ChainEqualAll {
			t.Errorf("single tree: all chains trivially equal: %+v", ni)
		}
	}
}

// A comparison lives as long as the analysis holding it, so its per-key
// tables are sized by the union of the trees' keys, not by their summed
// node count: on generated pages every per-tree lookup and the arena of
// Depths and NumChildren hold one entry per key and tree.
func TestCompareSizedByUnion(t *testing.T) {
	u := webgen.New(webgen.DefaultConfig(5))
	ds, _, err := crawler.Run(context.Background(), crawler.Config{
		Universe: u, Sites: tranco.Generate(6, 5).Entries(), MaxPages: 2, Instances: 2, SiteWorkers: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := &tree.Builder{}
	union, total := 0, 0
	for _, pv := range ds.Pages() {
		profiles := make([]string, 0, len(pv.ByProfile))
		for p := range pv.ByProfile {
			profiles = append(profiles, p)
		}
		sort.Strings(profiles)
		var trees []*tree.Tree
		for _, p := range profiles {
			if tr, err := b.Build(pv.ByProfile[p]); err == nil {
				trees = append(trees, tr)
				total += tr.NodeCount()
			}
		}
		c := Compare(trees)
		nk := len(c.Nodes)
		union += nk
		if cap(c.Nodes) != nk {
			t.Errorf("%v: %d aggregates for %d keys", pv.Key, cap(c.Nodes), nk)
		}
		for ti, lookup := range c.nodeByID {
			if cap(lookup) != nk {
				t.Errorf("%v: tree %d's lookup holds %d slots for %d keys", pv.Key, ti, cap(lookup), nk)
			}
		}
		if want := 2 * len(trees) * nk; cap(c.ints) != want {
			t.Errorf("%v: int arena holds %d ints, want %d", pv.Key, cap(c.ints), want)
		}
	}
	if union == 0 || union*2 > total {
		t.Fatalf("%d union keys over %d tree nodes: the pages share too little to tell the sizes apart", union, total)
	}
}

// BenchmarkCompare and the rest of the kernel benchmark suite live in
// bench_test.go.
