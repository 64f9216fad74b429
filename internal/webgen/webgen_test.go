package webgen

import (
	"fmt"
	"strings"
	"testing"

	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/tranco"
	"webmeasure/internal/urlutil"
)

func testUniverse() *Universe {
	return New(DefaultConfig(42))
}

func TestUniverseDeterministic(t *testing.T) {
	a, b := New(DefaultConfig(7)), New(DefaultConfig(7))
	sa, sb := a.AllServices(), b.AllServices()
	if len(sa) != len(sb) || len(sa) == 0 {
		t.Fatalf("service counts: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if *sa[i] != *sb[i] {
			t.Fatalf("service %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	c := New(DefaultConfig(8))
	if c.AllServices()[0].Domain == sa[0].Domain {
		t.Log("note: first service domain equal across seeds (allowed, names are few)")
	}
}

func TestUniverseServiceCounts(t *testing.T) {
	u := testUniverse()
	cfg := u.Config()
	checks := []struct {
		kind ServiceKind
		want int
	}{
		{KindAdNetwork, cfg.AdNetworks},
		{KindTracker, cfg.Trackers},
		{KindCDN, cfg.CDNs},
		{KindSocial, cfg.Social},
		{KindTagManager, cfg.TagManagers},
		{KindCMP, cfg.CMPs},
		{KindAdHost, cfg.AdHosts},
	}
	for _, c := range checks {
		if got := len(u.Services(c.kind)); got != c.want {
			t.Errorf("%v: %d services, want %d", c.kind, got, c.want)
		}
	}
	if u.Services(ServiceKind(99)) != nil {
		t.Error("unknown kind should return nil")
	}
}

func TestServiceDomainsUniqueAndRegistrable(t *testing.T) {
	u := testUniverse()
	seen := map[string]bool{}
	for _, s := range u.AllServices() {
		if seen[s.Domain] {
			t.Errorf("duplicate service domain %q", s.Domain)
		}
		seen[s.Domain] = true
		if got := urlutil.Site("https://" + s.Domain + "/x"); got != s.Domain {
			t.Errorf("service domain %q is not registrable (site=%q)", s.Domain, got)
		}
	}
}

func TestTrackingFlags(t *testing.T) {
	u := testUniverse()
	for _, s := range u.Services(KindTracker) {
		if !s.Tracking {
			t.Errorf("tracker %q not flagged tracking", s.Domain)
		}
	}
	for _, s := range u.Services(KindCDN) {
		if s.Tracking {
			t.Errorf("CDN %q flagged tracking", s.Domain)
		}
	}
}

func TestFilterListMatchesEcosystem(t *testing.T) {
	u := testUniverse()
	list, skipped := filterlist.Parse(u.FilterListText())
	if skipped != 0 {
		t.Fatalf("filter list skipped %d rules", skipped)
	}
	tr := u.Services(KindTracker)[0]
	cdn := u.Services(KindCDN)[0]
	page := "https://news.example/article"
	if !list.Matches(filterlist.Request{URL: "https://" + tr.Domain + "/js/analytics.js", PageURL: page, Type: filterlist.TypeScript}) {
		t.Error("tracker script should match the generated list")
	}
	if !list.Matches(filterlist.Request{URL: "https://news.example/track/pageview?sid=", PageURL: page, Type: filterlist.TypePing}) {
		t.Error("generic /track/ rule should match first-party analytics")
	}
	if list.Matches(filterlist.Request{URL: "https://" + cdn.Domain + "/libs/lib-01/main.min.js", PageURL: page, Type: filterlist.TypeScript}) {
		t.Error("CDN library must not match")
	}
}

func TestGenerateSiteDeterministic(t *testing.T) {
	u := testUniverse()
	e := tranco.Entry{Rank: 3, Site: "news-site.example"}
	a, b := u.GenerateSite(e), u.GenerateSite(e)
	if a.Domain != b.Domain || len(a.Pages) != len(b.Pages) {
		t.Fatalf("site shape differs: %d vs %d pages", len(a.Pages), len(b.Pages))
	}
	if a.Landing.Seed != b.Landing.Seed {
		t.Error("page seeds differ across generations")
	}
	if na, nb := a.Landing.CountResources(), b.Landing.CountResources(); na != nb {
		t.Errorf("landing resource counts differ: %d vs %d", na, nb)
	}
}

func TestGenerateSiteShape(t *testing.T) {
	u := testUniverse()
	s := u.GenerateSite(tranco.Entry{Rank: 10, Site: "shop-site.example"})
	if s.Landing == nil {
		t.Fatal("no landing page")
	}
	if s.Landing.URL != "https://shop-site.example/" {
		t.Errorf("landing URL = %q", s.Landing.URL)
	}
	if len(s.Pages) > 0 && len(s.Landing.Links) == 0 {
		t.Error("landing page must link some subpages")
	}
	if len(s.Landing.Links) > len(s.Pages) {
		t.Errorf("landing links (%d) exceed pages (%d)", len(s.Landing.Links), len(s.Pages))
	}
	pageURLs := map[string]bool{}
	for _, p := range s.Pages {
		pageURLs[p.URL] = true
	}
	for _, l := range s.Landing.Links {
		if !pageURLs[l] {
			t.Errorf("landing links to unknown page %q", l)
		}
	}
	for i, p := range s.Pages {
		if p.Site != s.Domain {
			t.Errorf("page %d site = %q", i, p.Site)
		}
		if !strings.HasPrefix(p.URL, "https://"+s.Domain+"/") {
			t.Errorf("page %d URL = %q not on site", i, p.URL)
		}
		if p.Root == nil || p.Root.Type != measurement.TypeMainFrame {
			t.Errorf("page %d root malformed", i)
		}
	}
	if got := len(s.AllPages()); got != len(s.Pages)+1 {
		t.Errorf("AllPages = %d", got)
	}
}

// A one-page budget must generate every site: the link-poor branch (8% of
// sites) used to draw from an empty range and panic.
func TestGenerateSiteOnePagePerSite(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.PagesPerSite = 1
	u := New(cfg)
	for i := 0; i < 300; i++ {
		s := u.GenerateSite(tranco.Entry{Rank: i + 1, Site: fmt.Sprintf("site-%03d.example", i)})
		if len(s.Pages) > 1 {
			t.Fatalf("%s: %d subpages, the budget is 1", s.Domain, len(s.Pages))
		}
	}
}

func TestPageSpecInvariants(t *testing.T) {
	u := testUniverse()
	var pages []*Page
	for _, site := range []string{"a-site.example", "b-site.example", "c-site.example"} {
		s := u.GenerateSite(tranco.Entry{Rank: 100, Site: site})
		pages = append(pages, s.AllPages()...)
	}
	for _, p := range pages {
		ids := map[string]bool{}
		var walk func(r *Resource)
		walk = func(r *Resource) {
			if ids[r.ID] {
				t.Fatalf("page %s: duplicate resource ID %q", p.URL, r.ID)
			}
			ids[r.ID] = true
			if r.IncludeProb < 0 || r.IncludeProb > 1 {
				t.Fatalf("page %s: node %s IncludeProb %v", p.URL, r.ID, r.IncludeProb)
			}
			if r.VolatilePath && !strings.Contains(r.URL, VolatilePathMarker) {
				t.Fatalf("page %s: node %s VolatilePath without marker: %q", p.URL, r.ID, r.URL)
			}
			if !r.VolatilePath && strings.Contains(r.URL, VolatilePathMarker) {
				t.Fatalf("page %s: node %s has marker but not volatile", p.URL, r.ID)
			}
			if len(r.Variants) > 0 && r.Type != measurement.TypeSubFrame {
				t.Fatalf("page %s: variants on non-frame node %s", p.URL, r.ID)
			}
			for _, c := range r.Children {
				walk(c)
			}
			for _, v := range r.Variants {
				for _, c := range v {
					walk(c)
				}
			}
		}
		walk(p.Root)
	}
}

func TestPageSizesPlausible(t *testing.T) {
	u := testUniverse()
	total, n := 0, 0
	for i := 0; i < 20; i++ {
		s := u.GenerateSite(tranco.Entry{Rank: i*25 + 1, Site: strings.Repeat("x", i%3+1) + "-size.example"})
		for _, p := range s.AllPages() {
			total += p.CountResources()
			n++
		}
	}
	avg := float64(total) / float64(n)
	// Spec nodes exceed observed nodes (variants + probabilistic pruning);
	// plausible band for an ~80-node average observed tree.
	if avg < 40 || avg > 400 {
		t.Errorf("average spec size %.1f outside plausible band [40, 400]", avg)
	}
}

func TestUnreachableSitesExist(t *testing.T) {
	u := testUniverse()
	count := 0
	for i := 0; i < 400; i++ {
		s := u.GenerateSite(tranco.Entry{Rank: i + 1, Site: strings.ToLower(strings.Repeat("q", i%5+1)) + nameFor(i) + ".example"})
		if s.Unreachable {
			count++
		}
	}
	if count == 0 || count > 30 {
		t.Errorf("unreachable sites = %d of 400, want ~1%%", count)
	}
}

func nameFor(i int) string {
	return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestRollsDeterministicAndUniform(t *testing.T) {
	if RollProb(1, 2, "a", "b") != RollProb(1, 2, "a", "b") {
		t.Error("RollProb not deterministic")
	}
	if RollProb(1, 2, "a", "b") == RollProb(1, 3, "a", "b") {
		t.Error("nonce should change the roll")
	}
	if RollToken(1, 2, "a", "b") != RollToken(1, 2, "a", "b") {
		t.Error("RollToken not deterministic")
	}
	if len(RollToken(1, 2, "a", "b")) != 8 {
		t.Error("token length")
	}
	// Crude uniformity check.
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		sum += RollProb(uint64(i), 0, "x", "u")
	}
	if mean := sum / n; mean < 0.47 || mean > 0.53 {
		t.Errorf("roll mean %v not ~0.5", mean)
	}
	if RollChoice(1, 2, "a", "b", 0) != 0 {
		t.Error("RollChoice(n=0) should be 0")
	}
	if c := RollChoice(1, 2, "a", "b", 5); c < 0 || c >= 5 {
		t.Errorf("RollChoice out of range: %d", c)
	}
}

func TestVolatilityKnobsPresent(t *testing.T) {
	u := testUniverse()
	var lazy, volatileParam, volatilePath, variants, redirects, guiOnly, verGated int
	for i := 0; i < 30; i++ {
		s := u.GenerateSite(tranco.Entry{Rank: i + 1, Site: nameFor(i) + "-knobs.example"})
		for _, p := range s.AllPages() {
			var walk func(r *Resource)
			walk = func(r *Resource) {
				if r.Lazy {
					lazy++
				}
				if len(r.VolatileParams) > 0 {
					volatileParam++
				}
				if r.VolatilePath {
					volatilePath++
				}
				if len(r.Variants) > 0 {
					variants++
				}
				if len(r.RedirectVia) > 0 {
					redirects++
				}
				if r.GUIOnly {
					guiOnly++
				}
				if r.MinVersion > 0 || r.MaxVersion > 0 {
					verGated++
				}
				for _, c := range r.Children {
					walk(c)
				}
				for _, v := range r.Variants {
					for _, c := range v {
						walk(c)
					}
				}
			}
			walk(p.Root)
		}
	}
	for name, c := range map[string]int{
		"lazy": lazy, "volatileParam": volatileParam, "volatilePath": volatilePath,
		"variants": variants, "redirects": redirects, "guiOnly": guiOnly, "verGated": verGated,
	} {
		if c == 0 {
			t.Errorf("volatility knob %q never used", name)
		}
	}
}

func TestPrivacyListExtendsCoverage(t *testing.T) {
	u := testUniverse()
	base, s1 := filterlist.Parse(u.FilterListText())
	privacy, s2 := filterlist.Parse(u.PrivacyListText())
	if s1 != 0 || s2 != 0 {
		t.Fatalf("skipped rules: %d %d", s1, s2)
	}
	combined := filterlist.Merge(base, privacy)
	page := "https://news.example/article"
	tm := u.Services(KindTagManager)[0]
	tmReq := filterlist.Request{URL: "https://" + tm.Domain + "/tm.js?id=GTM-0001", PageURL: page, Type: filterlist.TypeScript}
	if base.Matches(tmReq) {
		t.Error("base list should not target tag managers")
	}
	if !combined.Matches(tmReq) {
		t.Error("combined list should target tag managers")
	}
	// The base list's coverage is preserved.
	tr := u.Services(KindTracker)[0]
	if !combined.Matches(filterlist.Request{URL: "https://" + tr.Domain + "/pixel.gif", PageURL: page, Type: filterlist.TypeImage}) {
		t.Error("combined list lost base coverage")
	}
}

func TestOrganizations(t *testing.T) {
	u := testUniverse()
	orgs := u.Organizations()
	if len(orgs) == 0 {
		t.Fatal("no organizations built")
	}
	services := u.AllServices()
	covered := map[string]bool{}
	multi := 0
	for _, o := range orgs {
		if len(o.Domains) == 0 {
			t.Fatalf("organization %s owns no domains", o.Name)
		}
		if len(o.Domains) > 1 {
			multi++
		}
		for _, d := range o.Domains {
			if covered[d] {
				t.Fatalf("domain %s owned by two organizations", d)
			}
			covered[d] = true
			if u.OrganizationOf(d) != o.Name {
				t.Fatalf("OrganizationOf(%s) = %q, want %q", d, u.OrganizationOf(d), o.Name)
			}
		}
	}
	if len(covered) != len(services) {
		t.Errorf("entity map covers %d of %d services", len(covered), len(services))
	}
	if multi == 0 {
		t.Error("no conglomerates generated")
	}
	if u.OrganizationOf("unknown.example") != "" {
		t.Error("unknown domains must have no organization")
	}
	// Deterministic across generations.
	again := New(DefaultConfig(42))
	if again.OrganizationOf(services[0].Domain) != u.OrganizationOf(services[0].Domain) {
		t.Error("entity map not deterministic")
	}
}

func TestDescribe(t *testing.T) {
	u := testUniverse()
	var entries []tranco.Entry
	for i := 1; i <= 20; i++ {
		entries = append(entries, tranco.Entry{Rank: i, Site: nameFor(i) + "-desc.example"})
	}
	p := u.Describe(entries)
	if p.Sites != 20 || p.Pages == 0 {
		t.Fatalf("profile degenerate: %+v", p)
	}
	if p.SpecNodesPerPage.Mean < float64(p.SpecNodesPerPage.Min) ||
		p.SpecNodesPerPage.Mean > float64(p.SpecNodesPerPage.Max) {
		t.Errorf("mean outside [min,max]: %+v", p.SpecNodesPerPage)
	}
	for _, knob := range []struct {
		name string
		v    int
	}{
		{"lazy", p.LazyNodes}, {"volatile-param", p.VolatileParamNodes},
		{"volatile-path", p.VolatilePathNodes}, {"variants", p.VariantFrames},
		{"redirects", p.RedirectChains}, {"cookies", p.CookieSetters},
		{"version", p.VersionGated},
	} {
		if knob.v == 0 {
			t.Errorf("knob %s unused in profile", knob.name)
		}
	}
	if p.TypeCounts["script"] == 0 || p.TypeCounts["image"] == 0 {
		t.Errorf("type mix empty: %v", p.TypeCounts)
	}
	if p.ThirdPartyRefs == 0 {
		t.Error("no third-party services referenced")
	}
	var sb strings.Builder
	p.Write(&sb)
	if !strings.Contains(sb.String(), "universe profile") {
		t.Error("Write output malformed")
	}
}

func TestNonceForDistinctAcrossProfiles(t *testing.T) {
	// Distinct profiles must always see distinct nonces for the same page
	// (the Sim1/Sim2 phenomenon depends on it).
	pages := []string{"https://a.example/", "https://a.example/page-01", "https://b.example/"}
	profiles := []string{"Old", "Sim1", "Sim2", "NoAction", "Headless"}
	for _, page := range pages {
		seen := map[uint64]string{}
		for _, p := range profiles {
			n := NonceFor(7, p, page)
			if prev, ok := seen[n]; ok {
				t.Fatalf("nonce collision between %s and %s on %s", prev, p, page)
			}
			seen[n] = p
		}
	}
	if NonceFor(7, "Sim1", pages[0]) == NonceFor(8, "Sim1", pages[0]) {
		t.Error("seed must change the nonce")
	}
}

func TestRollChoiceUniformity(t *testing.T) {
	const n = 5
	counts := make([]int, n)
	for i := 0; i < 20000; i++ {
		counts[RollChoice(uint64(i), 3, "node", "variant", n)]++
	}
	for c, got := range counts {
		if got < 3400 || got > 4600 {
			t.Errorf("choice %d drawn %d of 20000 (expected ~4000)", c, got)
		}
	}
}

func TestFilterListTextDeterministic(t *testing.T) {
	a, b := testUniverse().FilterListText(), testUniverse().FilterListText()
	if a != b {
		t.Error("filter list text not deterministic")
	}
	if testUniverse().PrivacyListText() != testUniverse().PrivacyListText() {
		t.Error("privacy list text not deterministic")
	}
}

func TestRenderHTMLEscaping(t *testing.T) {
	p := &Page{
		Site:  "x.example",
		URL:   `https://x.example/q?a=1&b="two"`,
		Root:  &Resource{ID: "root", URL: `https://x.example/q?a=1&b="two"`, Type: measurement.TypeMainFrame},
		Links: []string{`https://x.example/p?x=1&y=2`},
	}
	html := RenderHTML(p)
	if strings.Contains(html, `b="two"`) {
		t.Error("unescaped quotes in rendered HTML")
	}
	if !strings.Contains(html, "&amp;") {
		t.Error("ampersands not escaped")
	}
}
