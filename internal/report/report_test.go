package report

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webmeasure/internal/core"
	"webmeasure/internal/crawler"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/tranco"
	"webmeasure/internal/webgen"
)

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, "Title", []string{"A", "LongHeader"}, [][]string{
		{"x", "1"},
		{"longer-cell", "2"},
	})
	out := buf.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("missing separator: %q", lines[2])
	}
	// Column alignment: "LongHeader" starts at the same offset in all rows.
	off := strings.Index(lines[1], "LongHeader")
	if idx := strings.Index(lines[3], "1"); idx != off {
		t.Errorf("misaligned: header at %d, cell at %d", off, idx)
	}
}

func TestCSVQuoting(t *testing.T) {
	var buf bytes.Buffer
	CSV(&buf, []string{"a", "b"}, [][]string{{"x,y", `q"u`}})
	want := "a,b\n\"x,y\",\"q\"\"u\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errWriterFull = errors.New("writer full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWriterFull
	}
	f.n -= len(p)
	return len(p), nil
}

// A writer that fails anywhere, even inside the last table, fails the
// whole CSV export and names the table.
func TestWriteCSVReturnsWriteErrors(t *testing.T) {
	exp := &Experiment{Analysis: tinyExperiment(t), RankBoundaries: tranco.ScaledBoundaries(120)}
	var full bytes.Buffer
	if err := exp.WriteCSV(&full); err != nil {
		t.Fatal(err)
	}
	for _, short := range []int{1, 5, 40, 200, full.Len() - 1} {
		err := exp.WriteCSV(&failAfter{n: full.Len() - short})
		if !errors.Is(err, errWriterFull) {
			t.Errorf("writer failing %d bytes before the end: err = %v", short, err)
			continue
		}
		if short < 40 && !strings.Contains(err.Error(), "fig8_children_by_depth.csv") {
			t.Errorf("error does not name the last table: %v", err)
		}
	}
	if err := CSV(&failAfter{n: 3}, []string{"a", "b"}, [][]string{{"1", "2"}}); !errors.Is(err, errWriterFull) {
		t.Errorf("CSV: err = %v", err)
	}
}

// The text report prints the raw test errors, which the JSON bundle
// flattens or strips.
func TestReportPrintsRawTestErrors(t *testing.T) {
	exp := &Experiment{}
	exp.once.Do(func() {})
	exp.export = &core.Export{
		RawTests:       core.StatisticalTests{TypeEffectErr: errors.New("too few groups")},
		RankBucketsErr: errors.New("all ties"),
		RankBuckets:    &core.RankBucketResult{},
	}
	var buf bytes.Buffer
	exp.WriteStatisticalTests(&buf)
	exp.WriteTable7(&buf)
	for _, want := range []string{
		"Kruskal-Wallis: resource type vs similarity    error: too few groups\n",
		"Kruskal-Wallis unavailable: all ties\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestBar(t *testing.T) {
	if Bar(1, 1) != strings.Repeat("#", 40) {
		t.Error("full bar wrong")
	}
	if Bar(0, 1) != "" {
		t.Error("empty bar wrong")
	}
	if Bar(2, 1) != strings.Repeat("#", 40) {
		t.Error("overfull bar must clamp")
	}
	if Bar(1, 0) != "" {
		t.Error("zero max must not divide")
	}
}

func TestFormatters(t *testing.T) {
	if F(0.666) != "0.67" {
		t.Errorf("F = %q", F(0.666))
	}
	if Pct(0.42) != "42%" {
		t.Errorf("Pct = %q", Pct(0.42))
	}
	cases := map[int]string{0: "0", 999: "999", 1000: "1,000", 1234567: "1,234,567", -5: "-5"}
	for n, want := range cases {
		if got := Count(n); got != want {
			t.Errorf("Count(%d) = %q, want %q", n, got, want)
		}
	}
}

func tinyExperiment(t *testing.T) *core.Analysis {
	t.Helper()
	u := webgen.New(webgen.DefaultConfig(5))
	list := tranco.Generate(120, 5)
	sample := list.Sample(tranco.ScaledBoundaries(120), 4, 5)
	ds, _, err := crawler.Run(context.Background(), crawler.Config{
		Universe: u, Sites: sample, MaxPages: 4, Instances: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	filter, _ := filterlist.Parse(u.FilterListText())
	ranks := map[string]int{}
	for _, e := range sample {
		ranks[e.Site] = e.Rank
	}
	s, err := core.NewStream(ds, filter, core.Options{
		Profiles: []string{"Old", "Sim1", "Sim2", "NoAction", "Headless"},
		SiteRank: ranks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset(ds); err != nil {
		t.Fatal(err)
	}
	a, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestWriteAllProducesEverySection(t *testing.T) {
	a := tinyExperiment(t)
	exp := &Experiment{Analysis: a, RankBoundaries: tranco.ScaledBoundaries(120)}
	var buf bytes.Buffer
	exp.WriteAll(&buf)
	out := buf.String()
	sections := []string{
		"Crawl summary",
		"Visit timing",
		"Table 1", "Table 2", "Table 3", "Table 4a", "Table 4b",
		"Table 5", "Table 6", "Table 7",
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 7", "Figure 8",
		"§4.2 dependency-chain stability",
		"Static vs dynamic phenomena",
		"Profile-pair node-set similarity matrix",
		"Attribution vs ground truth",
		"Measurement stability metric",
		"§4.2 subframe impact",
		"§4.4 identical configuration",
		"Statistical tests",
		"§5.1", "§5.2", "§5.3",
		"Takeaways (§8)",
	}
	for _, s := range sections {
		if !strings.Contains(out, s) {
			t.Errorf("report missing section %q", s)
		}
	}
	if strings.Contains(out, "%!") {
		t.Error("format directive leaked into output")
	}
}

func TestWriteAllSkipsTable7WithoutBoundaries(t *testing.T) {
	a := tinyExperiment(t)
	exp := &Experiment{Analysis: a}
	var buf bytes.Buffer
	exp.WriteAll(&buf)
	if strings.Contains(buf.String(), "Table 7") {
		t.Error("Table 7 rendered without rank boundaries")
	}
	// Called directly, it renders an empty table.
	buf.Reset()
	exp.WriteTable7(&buf)
	if !strings.Contains(buf.String(), "== Table 7") {
		t.Errorf("Table 7 header missing:\n%s", buf.String())
	}
}

func TestWriteCSVFiles(t *testing.T) {
	a := tinyExperiment(t)
	exp := &Experiment{Analysis: a, RankBoundaries: tranco.ScaledBoundaries(120)}
	dir := t.TempDir()
	if err := exp.WriteCSVFiles(dir); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"table2_tree_overview.csv", "table3_depth_similarity.csv",
		"table4_resource_chains.csv", "table5_profile_totals.csv",
		"table6_profile_diffs.csv", "table7_rank_buckets.csv",
		"fig2_similarity_dist.csv", "fig3_node_types.csv",
		"fig4_similarity_by_depth.csv", "fig7_type_depth.csv",
		"fig8_children_by_depth.csv",
	}
	for _, name := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing CSV %s: %v", name, err)
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Errorf("%s has no data rows", name)
		}
		header := strings.Split(lines[0], ",")
		for i, row := range lines[1:] {
			if got := len(splitCSVRow(row)); got != len(header) {
				t.Errorf("%s row %d has %d cells, header has %d", name, i+1, got, len(header))
			}
		}
	}
	// Without rank boundaries, table 7 is skipped.
	dir2 := t.TempDir()
	if err := (&Experiment{Analysis: a}).WriteCSVFiles(dir2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir2, "table7_rank_buckets.csv")); err == nil {
		t.Error("table 7 CSV written without boundaries")
	}
}

// splitCSVRow splits a CSV row respecting double-quoted cells.
func splitCSVRow(row string) []string {
	var cells []string
	var cur strings.Builder
	inQuotes := false
	for i := 0; i < len(row); i++ {
		switch c := row[i]; {
		case c == '"':
			inQuotes = !inQuotes
		case c == ',' && !inQuotes:
			cells = append(cells, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	return append(cells, cur.String())
}
