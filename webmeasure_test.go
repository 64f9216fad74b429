package webmeasure

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"webmeasure/internal/dataset"
)

func runSmall(t testing.TB) *Results {
	t.Helper()
	res, err := Run(context.Background(), Config{Seed: 11, Sites: 25, PagesPerSite: 5})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunDefaults(t *testing.T) {
	res := runSmall(t)
	s := res.Summary()
	if s.Sites == 0 || s.Pages == 0 || s.VettedPages == 0 {
		t.Fatalf("summary degenerate: %+v", s)
	}
	if s.MeanNodesPerTree <= 0 || s.MeanNodePresence < 1 || s.MeanNodePresence > 5 {
		t.Errorf("tree stats: %+v", s)
	}
	if s.FirstPartyDepthSimilarity <= s.ThirdPartyDepthSimilarity {
		t.Errorf("party ordering violated: fp=%v tp=%v",
			s.FirstPartyDepthSimilarity, s.ThirdPartyDepthSimilarity)
	}
	if res.Analysis() == nil || res.Universe() == nil || len(res.RankBoundaries()) == 0 {
		t.Error("accessors broken")
	}
	if res.CrawlStats().VisitsTotal == 0 {
		t.Error("crawl stats missing")
	}
}

func TestWriteReport(t *testing.T) {
	res := runSmall(t)
	var buf bytes.Buffer
	res.WriteReport(&buf)
	for _, section := range []string{"Table 2", "Table 5", "Figure 3", "§5.3"} {
		if !strings.Contains(buf.String(), section) {
			t.Errorf("report missing %q", section)
		}
	}
}

func TestDatasetRoundTripThroughFacade(t *testing.T) {
	res := runSmall(t)
	var buf bytes.Buffer
	if err := res.WriteDataset(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAndAnalyzeContext(context.Background(), &buf, Config{Seed: 11, Sites: 25, PagesPerSite: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Summary(), loaded.Summary()
	if a != b {
		t.Errorf("summaries differ after round trip:\n%+v\n%+v", a, b)
	}
}

func TestLoadAndAnalyzeBadInput(t *testing.T) {
	if _, err := LoadAndAnalyzeContext(context.Background(), strings.NewReader("{broken"), Config{}); err == nil {
		t.Error("broken dataset should error")
	}
	if _, err := LoadAndAnalyzeContext(context.Background(), strings.NewReader(""), Config{}); err == nil {
		t.Error("empty dataset should error (no visits)")
	}
	var col bytes.Buffer
	if err := dataset.NewColSiteWriter(&col).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAndAnalyzeContext(context.Background(), &col, Config{}); err == nil {
		t.Error("empty columnar dataset should error (no visits)")
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Seed: 1, Sites: 10}); err == nil {
		t.Error("cancelled run should error")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 1 || c.Sites != 100 || c.TrancoSize != 1000 || c.PagesPerSite != 10 {
		t.Errorf("defaults: %+v", c)
	}
	c = Config{Sites: 3000, TrancoSize: 5}.withDefaults()
	if c.TrancoSize < c.Sites {
		t.Errorf("TrancoSize must cover Sites: %+v", c)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := runSmall(t).Summary()
	b := runSmall(t).Summary()
	if a != b {
		t.Errorf("same seed produced different summaries:\n%+v\n%+v", a, b)
	}
}

func TestResumeThroughFacade(t *testing.T) {
	cfg := Config{Seed: 13, Sites: 15, PagesPerSite: 4}
	first, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := first.WriteDataset(&buf); err != nil {
		t.Fatal(err)
	}
	cfg.ResumeJSONL = &buf
	resumed, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CrawlStats().VisitsReused == 0 {
		t.Error("resume must reuse visits")
	}
	if first.Summary() != resumed.Summary() {
		t.Error("resumed run must equal the original")
	}
	// A broken resume stream errors out.
	cfg.ResumeJSONL = strings.NewReader("{nope")
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("broken resume stream should error")
	}
}

func TestWriteJSONBundle(t *testing.T) {
	res := runSmall(t)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"tree_overview\"") {
		t.Error("JSON bundle missing sections")
	}
}

// TestRunWithNoVettedPage: a heavy-fault experiment whose vetting keeps
// no page (seed 539 at this size) is a result, and every artifact
// renders from it — the report with its crawl summary and tables, the
// JSON bundle, the CSV tables, the Summary and the drift baseline.
func TestRunWithNoVettedPage(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Seed: 539, Sites: 5, PagesPerSite: 3, FaultProfile: "heavy", Workers: 1, SiteWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Analysis().Pages()); n != 0 {
		t.Fatalf("%d vetted pages, want none (pick another seed)", n)
	}
	var report bytes.Buffer
	res.WriteReport(&report)
	for _, want := range []string{"== Crawl summary", "== Table 1:"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, report.String())
		}
	}
	if err := res.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Errorf("JSON: %v", err)
	}
	if err := res.WriteCSV(&bytes.Buffer{}); err != nil {
		t.Errorf("CSV: %v", err)
	}
	if s := res.Summary(); s.Pages == 0 || s.VettedPages != 0 {
		t.Errorf("summary = %+v, want pages but none vetted", s)
	}
	if _, err := res.DriftBaseline().Encode(); err != nil {
		t.Errorf("drift baseline: %v", err)
	}
}
