package tree

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
)

const page = "https://news.example/article"

// visitFixture builds a hand-crafted visit exercising every attribution
// signal:
//
//	root ── app.js ──(stack)── api        (XHR)
//	  │        └─(stack)── tracker.js ──(stack)── sync-a →(redir)→ sync-b →(redir)→ done
//	  ├── logo.png                        (parser-inserted, no stack)
//	  └── adtag.js ──(stack)── frame ──(frame)── creative.js ──(stack)── ad.png
func visitFixture() *measurement.Visit {
	stack := func(url string) []measurement.StackFrame {
		return []measurement.StackFrame{{FuncName: "f", URL: url}}
	}
	return &measurement.Visit{
		Site: "news.example", PageURL: page, Profile: "Sim1", Success: true,
		Requests: []measurement.Request{
			{URL: page, Type: measurement.TypeMainFrame},
			{URL: "https://news.example/js/app.js", Type: measurement.TypeScript},
			{URL: "https://news.example/logo.png", Type: measurement.TypeImage},
			{URL: "https://news.example/api/v1/data?sid=123", Type: measurement.TypeXHR,
				CallStack: stack("https://news.example/js/app.js")},
			{URL: "https://trk-metrics.example/js/analytics.js", Type: measurement.TypeScript,
				CallStack: stack("https://news.example/js/app.js")},
			{URL: "https://trk-metrics.example/sync?uid=a", Type: measurement.TypeImage,
				CallStack: stack("https://trk-metrics.example/js/analytics.js")},
			{URL: "https://partner-metrics.example/sync?uid=b", Type: measurement.TypeImage,
				RedirectFrom: "https://trk-metrics.example/sync?uid=a"},
			{URL: "https://partner-metrics.example/track/done", Type: measurement.TypeImage,
				RedirectFrom: "https://partner-metrics.example/sync?uid=b"},
			{URL: "https://adnet-ads.example/js/adtag.js", Type: measurement.TypeScript},
			{URL: "https://adnet-ads.example/frame/slot-0", Type: measurement.TypeSubFrame,
				CallStack: stack("https://adnet-ads.example/js/adtag.js")},
			{URL: "https://adhost-adcontent.example/creative/c1/ad.js", Type: measurement.TypeScript,
				FrameID: 1, FrameURL: "https://adnet-ads.example/frame/slot-0"},
			{URL: "https://adhost-adcontent.example/creative/c1/img.png", Type: measurement.TypeImage,
				FrameID: 1, FrameURL: "https://adnet-ads.example/frame/slot-0",
				CallStack: stack("https://adhost-adcontent.example/creative/c1/ad.js")},
		},
	}
}

func testFilter(t *testing.T) *filterlist.List {
	t.Helper()
	l, skipped := filterlist.Parse("||trk-metrics.example^\n||partner-metrics.example^\n/track/\n/sync?\n")
	if skipped != 0 {
		t.Fatalf("filter skipped %d", skipped)
	}
	return l
}

func build(t *testing.T) *Tree {
	t.Helper()
	b := &Builder{Filter: testFilter(t)}
	tr, err := b.Build(visitFixture())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildStructure(t *testing.T) {
	tr := build(t)
	if tr.NodeCount() != 12 {
		t.Fatalf("nodes = %d, want 12", tr.NodeCount())
	}
	if tr.Root.Key != page {
		t.Errorf("root key = %q", tr.Root.Key)
	}
	check := func(key string, wantDepth int, wantParent string) {
		t.Helper()
		n := tr.Node(key)
		if n == nil {
			t.Fatalf("node %q missing", key)
		}
		if n.Depth != wantDepth {
			t.Errorf("%q depth = %d, want %d", key, n.Depth, wantDepth)
		}
		if wantParent == "" {
			if !n.IsRoot() {
				t.Errorf("%q should be root", key)
			}
		} else if n.Parent == nil || n.Parent.Key != wantParent {
			t.Errorf("%q parent = %v, want %q", key, n.Parent, wantParent)
		}
	}
	check(page, 0, "")
	check("https://news.example/js/app.js", 1, page)
	check("https://news.example/logo.png", 1, page)
	check("https://news.example/api/v1/data?sid=", 2, "https://news.example/js/app.js")
	check("https://trk-metrics.example/js/analytics.js", 2, "https://news.example/js/app.js")
	check("https://trk-metrics.example/sync?uid=", 3, "https://trk-metrics.example/js/analytics.js")
	check("https://partner-metrics.example/sync?uid=", 4, "https://trk-metrics.example/sync?uid=")
	check("https://partner-metrics.example/track/done", 5, "https://partner-metrics.example/sync?uid=")
	check("https://adnet-ads.example/frame/slot-0", 2, "https://adnet-ads.example/js/adtag.js")
	check("https://adhost-adcontent.example/creative/c1/ad.js", 3, "https://adnet-ads.example/frame/slot-0")
	check("https://adhost-adcontent.example/creative/c1/img.png", 4, "https://adhost-adcontent.example/creative/c1/ad.js")
}

// keysAtDepth returns t's keys at depth d, ascending.
func keysAtDepth(t *Tree, d int) []string {
	var out []string
	for _, n := range t.Nodes() { // (depth, key) order
		if n.Depth == d {
			out = append(out, n.Key)
		}
	}
	return out
}

func TestBuildMetrics(t *testing.T) {
	tr := build(t)
	if d := tr.MaxDepth(); d != 5 {
		t.Errorf("MaxDepth = %d, want 5", d)
	}
	if b := tr.Breadth(); b != 3 {
		t.Errorf("Breadth = %d, want 3 (depth 1 and 2 have 3 nodes)", b)
	}
	if got := len(keysAtDepth(tr, 1)); got != 3 {
		t.Errorf("%d keys at depth 1, want 3", got)
	}
	if got := keysAtDepth(tr, 5); len(got) != 1 || got[0] != "https://partner-metrics.example/track/done" {
		t.Errorf("keys at depth 5 = %v", got)
	}
	// Normalization stripped: api?sid=123, sync?uid=a, sync?uid=b.
	if tr.StrippedURLs != 3 {
		t.Errorf("StrippedURLs = %d, want 3", tr.StrippedURLs)
	}
	if tr.TotalRequests != 12 {
		t.Errorf("TotalRequests = %d", tr.TotalRequests)
	}

	// Breadth counts runs of the depth-sorted node list; it must equal a
	// count over the node map for built trees, trees rebuilt from their
	// records, and hand-made trees before and after Finalize.
	trees := map[string]*Tree{"fixture": tr}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		v := &measurement.Visit{Site: "news.example", PageURL: page, Profile: "Sim1", Success: true,
			Requests: []measurement.Request{{URL: page, Type: measurement.TypeMainFrame}}}
		urls := []string{page}
		for j := 0; j < 1+rng.Intn(30); j++ {
			u := fmt.Sprintf("https://news.example/r%d.js", j)
			v.Requests = append(v.Requests, measurement.Request{URL: u, Type: measurement.TypeScript,
				CallStack: []measurement.StackFrame{{URL: urls[rng.Intn(len(urls))]}}})
			urls = append(urls, u)
		}
		built, err := (&Builder{}).Build(v)
		if err != nil {
			t.Fatal(err)
		}
		trees[fmt.Sprintf("random%d", i)] = built
	}
	rebuilt := map[string]*Tree{}
	for name, x := range trees {
		r, err := x.Record().Tree()
		if err != nil {
			t.Fatal(err)
		}
		rebuilt[name+"/rebuilt"] = r
	}
	maps.Copy(trees, rebuilt)
	root := &Node{Key: page}
	a := &Node{Key: "a", Parent: root, Depth: 1}
	b := &Node{Key: "b", Parent: root, Depth: 1}
	root.Children = []*Node{a, b}
	hand := &Tree{Root: root, nodes: map[string]*Node{page: root, "a": a, "b": b}}
	for _, k := range []string{"c", "d", "e"} {
		n := &Node{Key: k, Parent: a, Depth: 2}
		a.Children = append(a.Children, n)
		hand.nodes[k] = n
	}
	trees["hand-made"] = hand
	check := func(name string, x *Tree) {
		counts := map[int]int{}
		want := 0
		for _, n := range x.nodes {
			counts[n.Depth]++
			want = max(want, counts[n.Depth])
		}
		if got := x.Breadth(); got != want {
			t.Errorf("%s: Breadth = %d, count over the nodes %d", name, got, want)
		}
	}
	for name, x := range trees {
		check(name, x)
	}
	hand.Finalize()
	check("hand-made/finalized", hand)
	if hand.Breadth() != 3 {
		t.Errorf("hand-made Breadth = %d, want 3", hand.Breadth())
	}
}

func TestPartyAndTracking(t *testing.T) {
	tr := build(t)
	cases := []struct {
		key      string
		party    Party
		tracking bool
	}{
		{"https://news.example/js/app.js", FirstParty, false},
		{"https://news.example/api/v1/data?sid=", FirstParty, false},
		{"https://trk-metrics.example/js/analytics.js", ThirdParty, true},
		{"https://partner-metrics.example/track/done", ThirdParty, true},
		{"https://adnet-ads.example/js/adtag.js", ThirdParty, false},
		{"https://adhost-adcontent.example/creative/c1/img.png", ThirdParty, false},
	}
	for _, c := range cases {
		n := tr.Node(c.key)
		if n == nil {
			t.Fatalf("missing %q", c.key)
		}
		if n.Party != c.party || n.Tracking != c.tracking {
			t.Errorf("%q: party=%v tracking=%v, want %v/%v", c.key, n.Party, n.Tracking, c.party, c.tracking)
		}
	}
}

func TestChain(t *testing.T) {
	tr := build(t)
	n := tr.Node("https://partner-metrics.example/track/done")
	chain := []string{
		page,
		"https://news.example/js/app.js",
		"https://trk-metrics.example/js/analytics.js",
		"https://trk-metrics.example/sync?uid=",
		"https://partner-metrics.example/sync?uid=",
		"https://partner-metrics.example/track/done",
	}
	if got := chainOf(n); !slices.Equal(got, chain) {
		t.Fatalf("chain = %q, want %q", got, chain)
	}
	for i, key := range chain {
		if m := tr.Node(key); m.Depth != i {
			t.Errorf("%q at depth %d, want %d", key, m.Depth, i)
		}
	}
	if got := chainOf(tr.Root); !slices.Equal(got, chain[:1]) {
		t.Errorf("root chain = %q, want %q", got, chain[:1])
	}
}

// chainOf returns n's dependency chain, root first, by walking its Parent
// pointers.
func chainOf(n *Node) []string {
	var chain []string
	for cur := n; cur != nil; cur = cur.Parent {
		chain = append(chain, cur.Key)
	}
	slices.Reverse(chain)
	return chain
}

func TestMergeDuplicateURLs(t *testing.T) {
	v := visitFixture()
	// The same script requested again with a different session ID merges.
	v.Requests = append(v.Requests, measurement.Request{
		URL:  "https://news.example/api/v1/data?sid=999",
		Type: measurement.TypeXHR,
		CallStack: []measurement.StackFrame{
			{FuncName: "g", URL: "https://adnet-ads.example/js/adtag.js"},
		},
	})
	b := &Builder{}
	tr, err := b.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Node("https://news.example/api/v1/data?sid=")
	if n == nil {
		t.Fatal("merged node missing")
	}
	// First parent wins.
	if n.Parent.Key != "https://news.example/js/app.js" {
		t.Errorf("merge changed parent: %q", n.Parent.Key)
	}
}

func TestUnattributableAttachesToRoot(t *testing.T) {
	v := &measurement.Visit{
		Site: "x.example", PageURL: "https://x.example/", Profile: "Sim1", Success: true,
		Requests: []measurement.Request{
			{URL: "https://x.example/", Type: measurement.TypeMainFrame},
			{URL: "https://cdn.example/lost.js", Type: measurement.TypeScript,
				CallStack: []measurement.StackFrame{{URL: "https://never-seen.example/ghost.js"}}},
		},
	}
	tr, err := (&Builder{}).Build(v)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Node("https://cdn.example/lost.js")
	if n == nil || !n.Parent.IsRoot() {
		t.Error("orphaned request must attach to the root")
	}
}

func TestBuildErrors(t *testing.T) {
	b := &Builder{}
	if _, err := b.Build(&measurement.Visit{Success: false, Failure: "x"}); err == nil {
		t.Error("failed visit should error")
	}
	if _, err := b.Build(&measurement.Visit{Success: true}); err == nil {
		t.Error("empty visit should error")
	}
}

func TestNodesOrderingDeterministic(t *testing.T) {
	tr := build(t)
	nodes := tr.Nodes()
	if len(nodes) != tr.NodeCount() {
		t.Fatalf("Nodes() length %d", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		a, b := nodes[i-1], nodes[i]
		if a.Depth > b.Depth || (a.Depth == b.Depth && a.Key >= b.Key) {
			t.Fatalf("ordering violated at %d", i)
		}
	}
	if nodes[0] != tr.Root {
		t.Error("root must sort first")
	}
}

func TestChildKeys(t *testing.T) {
	tr := build(t)
	app := tr.Node("https://news.example/js/app.js")
	keys := app.ChildKeys()
	if len(keys) != 2 || !keys["https://trk-metrics.example/js/analytics.js"] {
		t.Errorf("ChildKeys = %v", keys)
	}
}

func BenchmarkBuild(b *testing.B) {
	v := visitFixture()
	builder := &Builder{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(v); err != nil {
			b.Fatal(err)
		}
	}
}
