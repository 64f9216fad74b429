package treediff

import (
	"fmt"
	"testing"

	"webmeasure/internal/measurement"
	"webmeasure/internal/tree"
)

// The comparison kernel's micro-benchmarks: Compare over three synthetic
// universe sizes, the per-depth similarity pass, and the pairwise Jaccard
// primitive (internal/stats). `make bench-smoke` single-steps them;
// EXPERIMENTS.md records the before/after numbers of the interned-kernel
// rewrite.

// name mirrors the historical node namer: letter+digit keeps the URLs
// query-free for i < 260 (the medium universe), so node identities survive
// normalization.
func name(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func benchVisit(edges [][2]string, p int) *measurement.Visit {
	v := &measurement.Visit{
		Site: "fig6.example", PageURL: rootURL, Profile: name(p), Success: true,
		Requests: []measurement.Request{{URL: rootURL, Type: measurement.TypeMainFrame}},
	}
	for _, e := range edges {
		req := measurement.Request{URL: e[0], Type: measurement.TypeScript}
		if e[1] != rootURL {
			req.CallStack = []measurement.StackFrame{{FuncName: "f", URL: e[1]}}
		}
		v.Requests = append(v.Requests, req)
	}
	return v
}

// benchTrees builds five overlapping trees of n candidate nodes each:
// profile-shifted gaps every `gap` nodes make the trees similar but not
// identical, the first tenth hangs off the root, the rest nest under
// earlier nodes. The medium shape (n=60, gap=13) is the pre-interning
// BenchmarkCompare universe, kept identical so the numbers recorded in
// EXPERIMENTS.md stay comparable across the kernel rewrite.
func benchTrees(b *testing.B, n, gap int, namer func(int) string) []*tree.Tree {
	b.Helper()
	var trees []*tree.Tree
	for p := 0; p < 5; p++ {
		var edges [][2]string
		for i := 0; i < n; i++ {
			if (i+p)%gap == 0 {
				continue // profile-specific gaps
			}
			parent := rootURL
			if i >= n/6 {
				parent = u(namer(i / 3))
			}
			edges = append(edges, [2]string{u(namer(i)), parent})
		}
		tr, err := (&tree.Builder{}).Build(benchVisit(edges, p))
		if err != nil {
			b.Fatal(err)
		}
		trees = append(trees, tr)
	}
	return trees
}

func wideName(i int) string { return fmt.Sprintf("r%03d", i) }

func BenchmarkCompare(b *testing.B) {
	for _, size := range []struct {
		name  string
		n     int
		gap   int
		namer func(int) string
	}{
		{"small", 12, 5, name},
		{"medium", 60, 13, name},
		{"large", 400, 17, wideName},
	} {
		b.Run(size.name, func(b *testing.B) {
			trees := benchTrees(b, size.n, size.gap, size.namer)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Compare(trees)
			}
		})
	}
}

func BenchmarkDepthSimilarity(b *testing.B) {
	c := Compare(benchTrees(b, 60, 13, name))
	filters := []DepthFilter{{}, {OnlyWithChildren: true}, {OnlyInAllTrees: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range filters {
			c.DepthSimilarity(f)
		}
	}
}
