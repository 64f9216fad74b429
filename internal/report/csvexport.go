package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// CSVTable is one exported table or figure in CSV form.
type CSVTable struct {
	Name    string // file name, e.g. "table2_tree_overview.csv"
	Headers []string
	Rows    [][]string
}

// CSVTables formats the derived analysis (Export) as the full set of CSV
// tables and figures, in a fixed order:
//
//	vetting.csv
//	table2_tree_overview.csv     table3_depth_similarity.csv
//	table4_resource_chains.csv   table5_profile_totals.csv
//	table6_profile_diffs.csv     table7_rank_buckets.csv
//	fig2_similarity_dist.csv     fig3_node_types.csv
//	fig4_similarity_by_depth.csv fig7_type_depth.csv
//	fig8_children_by_depth.csv
//
// (table7 is present only when RankBoundaries is set.) Both export paths —
// one file per table (WriteCSVFiles) and one concatenated stream
// (WriteCSV) — render exactly this inventory.
func (e *Experiment) CSVTables() []CSVTable {
	x := e.Export()
	ff := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	ii := strconv.Itoa

	var tables []CSVTable

	vet := x.CrawlSummary.Vetting
	tables = append(tables, CSVTable{
		Name:    "vetting.csv",
		Headers: []string{"pages_seen", "pages_vetted", "excluded_missing", "excluded_failed", "excluded_degraded", "excluded_build", "exclusion_share"},
		Rows: [][]string{{
			ii(vet.PagesSeen), ii(vet.PagesVetted),
			ii(vet.ExcludedMissing), ii(vet.ExcludedFailed),
			ii(vet.ExcludedDegraded), ii(vet.ExcludedBuild),
			ff(vet.ExclusionShare()),
		}},
	})

	ov := x.TreeOverview
	tables = append(tables, CSVTable{
		Name:    "table2_tree_overview.csv",
		Headers: []string{"metric", "avg", "sd", "min", "max"},
		Rows: [][]string{
			{"nodes", ff(ov.Nodes.Mean), ff(ov.Nodes.SD), ff(ov.Nodes.Min), ff(ov.Nodes.Max)},
			{"depth", ff(ov.Depth.Mean), ff(ov.Depth.SD), ff(ov.Depth.Min), ff(ov.Depth.Max)},
			{"breadth", ff(ov.Breadth.Mean), ff(ov.Breadth.SD), ff(ov.Breadth.Min), ff(ov.Breadth.Max)},
		},
	})

	var t3 [][]string
	for _, r := range x.DepthSim {
		t3 = append(t3, []string{r.Label, string(r.Category), ff(r.Sim), ff(r.SD), ff(r.Max), ff(r.Min)})
	}
	tables = append(tables, CSVTable{
		Name:    "table3_depth_similarity.csv",
		Headers: []string{"test", "category", "sim", "sd", "max", "min"},
		Rows:    t3,
	})

	var t4 [][]string
	for _, r := range x.ResourceChains {
		t4 = append(t4, []string{r.Type.String(), ff(r.SameChainShare), ff(r.ParentSim), ii(r.N)})
	}
	tables = append(tables, CSVTable{
		Name:    "table4_resource_chains.csv",
		Headers: []string{"type", "same_chain_share", "parent_sim", "n"},
		Rows:    t4,
	})

	var t5 [][]string
	for _, r := range x.ProfileTotals {
		t5 = append(t5, []string{r.Profile, ii(r.Nodes), ii(r.ThirdParty), ii(r.Tracker), ii(r.MaxDepth), ii(r.MaxBreadth)})
	}
	tables = append(tables, CSVTable{
		Name:    "table5_profile_totals.csv",
		Headers: []string{"profile", "nodes", "third_party", "tracker", "max_depth", "max_breadth"},
		Rows:    t5,
	})

	var t6 [][]string
	for _, r := range x.ProfilePairs {
		t6 = append(t6, []string{
			r.Other, ff(r.FPChildrenPerfect), ff(r.FPChildrenNone),
			ff(r.TPChildrenPerfect), ff(r.TPChildrenNone),
			ff(r.FPParentPerfect), ff(r.FPParentNone),
			ff(r.TPParentPerfect), ff(r.TPParentNone),
			ff(r.MeanParentSim), ff(r.MeanChildSim),
		})
	}
	tables = append(tables, CSVTable{
		Name: "table6_profile_diffs.csv",
		Headers: []string{"profile", "fp_children_perfect", "fp_children_none",
			"tp_children_perfect", "tp_children_none",
			"fp_parent_perfect", "fp_parent_none",
			"tp_parent_perfect", "tp_parent_none",
			"mean_parent_sim", "mean_child_sim"},
		Rows: t6,
	})

	if x.RankBuckets != nil {
		var t7 [][]string
		for _, r := range x.RankBuckets.Rows {
			t7 = append(t7, []string{r.Bucket, ff(r.MeanNodes), ff(r.ChildSim), ff(r.ParentSim), ii(r.Pages)})
		}
		tables = append(tables, CSVTable{
			Name:    "table7_rank_buckets.csv",
			Headers: []string{"bucket", "mean_nodes", "child_sim", "parent_sim", "pages"},
			Rows:    t7,
		})
	}

	d := x.SimDist
	cf, pf := d.Children.RelativeFrequencies(), d.Parents.RelativeFrequencies()
	var f2 [][]string
	for i := range cf {
		f2 = append(f2, []string{ff(d.Children.BinCenter(i)), ff(cf[i]), ff(pf[i])})
	}
	tables = append(tables, CSVTable{
		Name:    "fig2_similarity_dist.csv",
		Headers: []string{"bin_center", "children_freq", "parent_freq"},
		Rows:    f2,
	})

	var f3 [][]string
	for _, r := range x.NodeTypeVolume {
		f3 = append(f3, []string{r.Depth, ff(r.FirstParty), ff(r.ThirdParty), ff(r.Tracking), ff(r.NonTracking), ii(r.Nodes)})
	}
	tables = append(tables, CSVTable{
		Name:    "fig3_node_types.csv",
		Headers: []string{"depth", "first_party", "third_party", "tracking", "non_tracking", "nodes"},
		Rows:    f3,
	})

	var f4 [][]string
	for _, r := range x.SimByDepth {
		f4 = append(f4, []string{r.Depth, ff(r.ChildSim), ff(r.ParentSim), ii(r.Nodes)})
	}
	tables = append(tables, CSVTable{
		Name:    "fig4_similarity_by_depth.csv",
		Headers: []string{"depth", "child_sim", "parent_sim", "nodes"},
		Rows:    f4,
	})

	var f7 [][]string
	for _, r := range x.TypeDepth {
		f7 = append(f7, []string{r.Type.String(), ii(r.Depth), ff(r.ChildSim), ff(r.ParentSim), ii(r.Nodes)})
	}
	tables = append(tables, CSVTable{
		Name:    "fig7_type_depth.csv",
		Headers: []string{"type", "depth", "child_sim", "parent_sim", "nodes"},
		Rows:    f7,
	})

	var f8 [][]string
	for _, r := range x.ChildrenByDepth {
		f8 = append(f8, []string{ii(r.Depth), ff(r.Mean), ff(r.Median), ff(r.Q1), ff(r.Q3), ff(r.Max), ii(r.Nodes)})
	}
	tables = append(tables, CSVTable{
		Name:    "fig8_children_by_depth.csv",
		Headers: []string{"depth", "mean", "median", "q1", "q3", "max", "nodes"},
		Rows:    f8,
	})

	return tables
}

// WriteCSVFiles exports the analysis as CSV files into dir (created if
// missing), one file per table/figure, for external plotting. See
// CSVTables for the inventory.
func (e *Experiment) WriteCSVFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	for _, t := range e.CSVTables() {
		f, err := os.Create(filepath.Join(dir, t.Name))
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		err = CSV(f, t.Headers, t.Rows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("report: %s: %w", t.Name, err)
		}
	}
	return nil
}

// WriteCSV streams every table and figure into one writer, each section
// introduced by a "# <name>" comment line and separated by a blank line —
// the single-response form an HTTP result download needs.
func (e *Experiment) WriteCSV(w io.Writer) error {
	for i, t := range e.CSVTables() {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return fmt.Errorf("report: %w", err)
			}
		}
		if _, err := fmt.Fprintf(w, "# %s\n", t.Name); err != nil {
			return fmt.Errorf("report: %w", err)
		}
		if err := CSV(w, t.Headers, t.Rows); err != nil {
			return fmt.Errorf("report: %s: %w", t.Name, err)
		}
	}
	return nil
}
