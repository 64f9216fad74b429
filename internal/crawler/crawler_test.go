package crawler

import (
	"context"
	"testing"

	"webmeasure/internal/browser"
	"webmeasure/internal/dataset"
	"webmeasure/internal/tranco"
	"webmeasure/internal/webgen"
)

func smallCrawl(t *testing.T, nSites int, seed int64) ( //nolint:unparam
	cfg Config) {
	t.Helper()
	u := webgen.New(webgen.DefaultConfig(seed))
	list := tranco.Generate(nSites, seed)
	return Config{
		Universe:  u,
		Sites:     list.Entries(),
		MaxPages:  5,
		Instances: 4,
		Seed:      seed,
	}
}

func TestRunBasics(t *testing.T) {
	cfg := smallCrawl(t, 12, 1)
	ds, stats, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SitesVisited != 12 {
		t.Errorf("sites = %d", stats.SitesVisited)
	}
	if stats.VisitsTotal != ds.Len() {
		t.Errorf("stats total %d != dataset %d", stats.VisitsTotal, ds.Len())
	}
	// Every page gets exactly five profile visits.
	for _, pv := range ds.Pages() {
		if len(pv.ByProfile) != 5 {
			t.Fatalf("page %v has %d profiles", pv.Key, len(pv.ByProfile))
		}
	}
	if got := ds.Profiles(); len(got) != 5 {
		t.Errorf("profiles = %v", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, _, err := Run(context.Background(), smallCrawl(t, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(context.Background(), smallCrawl(t, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lens differ: %d vs %d", a.Len(), b.Len())
	}
	pa, pb := a.Pages(), b.Pages()
	for i := range pa {
		for prof, va := range pa[i].ByProfile {
			vb := pb[i].ByProfile[prof]
			if va.Success != vb.Success || len(va.Requests) != len(vb.Requests) {
				t.Fatalf("page %v profile %s differs", pa[i].Key, prof)
			}
		}
	}
}

// cleanPages returns the pages every given profile crawled cleanly, the
// paper's vetting rule.
func cleanPages(ds *dataset.Dataset, profiles []string) []*dataset.PageVisits {
	var out []*dataset.PageVisits
	for _, pv := range ds.Pages() {
		clean := true
		for _, name := range profiles {
			if v := pv.ByProfile[name]; v == nil || !v.Clean() {
				clean = false
			}
		}
		if clean {
			out = append(out, pv)
		}
	}
	return out
}

func TestSuccessRatesInPaperBand(t *testing.T) {
	cfg := smallCrawl(t, 40, 7)
	cfg.MaxPages = 8
	ds, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Profiles() {
		r := ds.SuccessRate(p)
		// Paper: each profile succeeds on ≥89% of pages (≥88% here for
		// sampling noise at small scale).
		if r < 0.82 || r > 0.97 {
			t.Errorf("profile %s success rate %.3f outside [0.82, 0.97]", p, r)
		}
	}
	// Vetting drops a substantial share but keeps most pages (paper: 55%
	// of pages survive all-profile vetting).
	vetted := len(cleanPages(ds, ds.Profiles()))
	total := len(ds.Pages())
	share := float64(vetted) / float64(total)
	if share < 0.35 || share > 0.85 {
		t.Errorf("vetted share %.3f outside [0.35, 0.85] (%d/%d)", share, vetted, total)
	}
}

func TestIdenticalProfilesDiffer(t *testing.T) {
	cfg := smallCrawl(t, 8, 9)
	ds, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for _, pv := range cleanPages(ds, []string{"Sim1", "Sim2"}) {
		s1 := pv.ByProfile["Sim1"]
		s2 := pv.ByProfile["Sim2"]
		urls := map[string]bool{}
		for _, r := range s1.Requests {
			urls[r.URL] = true
		}
		for _, r := range s2.Requests {
			if !urls[r.URL] {
				differ = true
			}
		}
	}
	if !differ {
		t.Error("identical profiles never observed different URLs — the central phenomenon is dead")
	}
}

func TestUnreachableSitesFailEverywhere(t *testing.T) {
	u := webgen.New(webgen.DefaultConfig(5))
	// Find an unreachable site by scanning.
	var entry tranco.Entry
	found := false
	for i := 1; i <= 500 && !found; i++ {
		e := tranco.Entry{Rank: i, Site: siteName(i)}
		if u.GenerateSite(e).Unreachable {
			entry, found = e, true
		}
	}
	if !found {
		t.Skip("no unreachable site in scan range")
	}
	ds, _, err := Run(context.Background(), Config{
		Universe: u, Sites: []tranco.Entry{entry}, MaxPages: 3, Instances: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Visits() {
		if v.Success {
			t.Fatalf("visit to unreachable site succeeded: %+v", v)
		}
	}
}

func siteName(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return string(letters[i%26]) + string(letters[(i/26)%26]) + "-unreach.example"
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallCrawl(t, 5, 1)
	_, _, err := Run(ctx, cfg)
	if err == nil {
		t.Error("cancelled context should abort the crawl")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("missing universe should error")
	}
	u := webgen.New(webgen.DefaultConfig(1))
	if _, _, err := Run(context.Background(), Config{Universe: u}); err == nil {
		t.Error("missing sites should error")
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := smallCrawl(t, 4, 2)
	var calls []int
	cfg.Progress = func(done, total int) {
		if total != 4 {
			t.Errorf("total = %d", total)
		}
		calls = append(calls, done)
	}
	if _, _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 || calls[3] != 4 {
		t.Errorf("progress calls = %v", calls)
	}
}

func TestCustomProfiles(t *testing.T) {
	cfg := smallCrawl(t, 3, 11)
	cfg.Profiles = browser.DefaultProfiles()[:2]
	ds, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Profiles(); len(got) != 2 {
		t.Errorf("profiles = %v", got)
	}
}
