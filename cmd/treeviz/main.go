// Command treeviz renders the dependency trees the five profiles observe
// for one page of the synthetic web, side by side with the per-node
// cross-comparison — an inspection tool for the paper's core method.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"sort"

	"webmeasure/internal/browser"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/tranco"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
	"webmeasure/internal/webgen"
)

func main() {
	var (
		seed = flag.Int64("seed", 1, "master seed")
		rank = flag.Int("rank", 1, "site rank to inspect")
		page = flag.Int("page", 0, "page index (0 = landing page)")
		full = flag.Bool("full", false, "print every tree, not just the first profile's")
		dot  = flag.String("dot", "", "write the trees as Graphviz DOT to this file instead of text output")
		diff = flag.Bool("diff", false, "print pairwise diffs against the first profile instead of trees")
		cons = flag.Bool("consensus", false, "print the consensus skeleton (majority quorum) instead of trees")
	)
	flag.Parse()

	u := webgen.New(webgen.DefaultConfig(*seed))
	list := tranco.Generate(*rank+10, *seed)
	entry, ok := list.At(*rank)
	if !ok {
		fmt.Fprintf(os.Stderr, "treeviz: rank %d out of range\n", *rank)
		os.Exit(1)
	}
	site := u.GenerateSite(entry)
	pages := site.AllPages()
	if *page < 0 || *page >= len(pages) {
		fmt.Fprintf(os.Stderr, "treeviz: site has %d pages\n", len(pages))
		os.Exit(1)
	}
	target := pages[*page]
	filter, _ := filterlist.Parse(u.FilterListText())
	builder := &tree.Builder{Filter: filter}

	var trees []*tree.Tree
	for _, prof := range browser.DefaultProfiles() {
		b := browser.New(prof)
		nonce := webgen.NonceFor(uint64(*seed), prof.Name, target.URL)
		v := b.Visit(target, nonce)
		if !v.Success {
			fmt.Printf("%s: visit failed (%s)\n", prof.Name, v.Failure)
			continue
		}
		t, err := builder.Build(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "treeviz: %v\n", err)
			os.Exit(1)
		}
		trees = append(trees, t)
	}
	if len(trees) == 0 {
		fmt.Fprintln(os.Stderr, "treeviz: no successful visits")
		os.Exit(1)
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "treeviz: %v\n", err)
			os.Exit(1)
		}
		writeDOT(f, trees)
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "treeviz: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "DOT graph written to %s (render with: dot -Tsvg %s)\n", *dot, *dot)
		return
	}

	fmt.Printf("page %s (site rank %d)\n\n", target.URL, entry.Rank)
	if *diff {
		for _, t := range trees[1:] {
			d := treediff.ComputeDiff(trees[0], t)
			d.Write(os.Stdout, 10)
			fmt.Println()
		}
		return
	}
	if *cons {
		nodes := treediff.Consensus(trees, 0)
		fmt.Printf("consensus skeleton (majority of %d trees): %d nodes, %.0f%% of the union\n\n",
			len(trees), len(nodes), treediff.ConsensusShare(trees, 0)*100)
		for _, n := range nodes {
			marks := ""
			if n.Tracking {
				marks += " [tracking]"
			}
			if n.ThirdParty {
				marks += " [3p]"
			}
			fmt.Printf("%d/%d  parent-agreement %.2f  %s%s\n",
				n.Presence, len(trees), n.ParentAgreement, trim(n.Key, 90), marks)
		}
		return
	}
	for _, t := range trees {
		fmt.Printf("--- %s: %d nodes, depth %d, breadth %d ---\n",
			t.Profile, t.NodeCount(), t.MaxDepth(), t.Breadth())
		if *full || t == trees[0] {
			printTree(t.Root, "")
		}
		fmt.Println()
	}

	cmp := treediff.Compare(trees)
	fmt.Printf("--- cross-comparison over %d trees ---\n", len(trees))
	rows := slices.Clone(cmp.Nodes)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Presence != rows[j].Presence {
			return rows[i].Presence < rows[j].Presence
		}
		return rows[i].Key < rows[j].Key
	})
	for _, ni := range rows {
		marks := ""
		if ni.Tracking {
			marks += " [tracking]"
		}
		if ni.Party == tree.ThirdParty {
			marks += " [3p]"
		}
		fmt.Printf("%d/%d  child=%.2f parent=%.2f  %s%s\n",
			ni.Presence, len(trees), ni.ChildSim, ni.ParentSim, trim(ni.Key, 90), marks)
	}
}

func printTree(n *tree.Node, indent string) {
	label := trim(n.Key, 100-len(indent))
	suffix := ""
	if n.Tracking {
		suffix = " *"
	}
	fmt.Printf("%s%s (%s)%s\n", indent, label, n.Type, suffix)
	sort.Slice(n.Children, func(a, b int) bool { return n.Children[a].Key < n.Children[b].Key })
	for _, c := range n.Children {
		printTree(c, indent+"  ")
	}
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// writeDOT renders all trees as one Graphviz digraph, one cluster per
// profile, tracking nodes highlighted.
func writeDOT(w io.Writer, trees []*tree.Tree) {
	fmt.Fprintln(w, "digraph dependency_trees {")
	fmt.Fprintln(w, "  rankdir=TB; node [shape=box, fontsize=9];")
	for ti, t := range trees {
		fmt.Fprintf(w, "  subgraph cluster_%d {\n", ti)
		fmt.Fprintf(w, "    label=%q;\n", t.Profile)
		id := func(n *tree.Node) string {
			return fmt.Sprintf("n%d_%x", ti, fnvHash(n.Key))
		}
		for _, n := range t.Nodes() {
			attrs := fmt.Sprintf("label=%q", dotLabel(n))
			if n.Tracking {
				attrs += ", style=filled, fillcolor=lightcoral"
			} else if n.Party == tree.ThirdParty {
				attrs += ", style=filled, fillcolor=lightyellow"
			}
			fmt.Fprintf(w, "    %s [%s];\n", id(n), attrs)
			if n.Parent != nil {
				fmt.Fprintf(w, "    %s -> %s;\n", id(n.Parent), id(n))
			}
		}
		fmt.Fprintln(w, "  }")
	}
	fmt.Fprintln(w, "}")
}

func dotLabel(n *tree.Node) string {
	label := n.Key
	if len(label) > 48 {
		label = "…" + label[len(label)-47:]
	}
	return label
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
