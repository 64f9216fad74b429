package webgen

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"webmeasure/internal/tranco"
)

// The reference generator below is the site generator as it was before
// each site call shared one reseeded generator: a fresh math/rand source
// per page and per churn step, and a later epoch that generates the whole
// epoch-0 site only to read its page count. GenerateSite and
// GenerateSiteAt must build exactly the sites it builds.

// refGeneratePage generates a page from a fresh source seeded with the
// page seed, so generatePage's own reseed finds it already in that state.
func refGeneratePage(u *Universe, p *siteProfile, pageURL, pageID string, links []string) *Page {
	seed := mix(p.seed, hash64("page", pageID))
	return u.generatePage(rand.New(rand.NewSource(int64(seed))), p, pageURL, pageID, links)
}

func refGenerateSite(u *Universe, entry tranco.Entry) *Site {
	seed := mix(uint64(u.cfg.Seed), hash64("site", entry.Site))
	rng := rand.New(rand.NewSource(int64(seed)))

	s := &Site{Domain: entry.Site, Rank: entry.Rank}
	if rng.Float64() < 0.01 {
		s.Unreachable = true
	}

	profile := buildSiteProfile(u, rng, entry.Site, entry.Rank)

	nPages := u.cfg.PagesPerSite
	switch {
	case rng.Float64() < 0.08:
		nPages = rng.Intn(max(u.cfg.PagesPerSite/2, 1))
	case rng.Float64() < 0.3:
		nPages = u.cfg.PagesPerSite/2 + rng.Intn(u.cfg.PagesPerSite/2+1)
	}

	links := make([]string, nPages)
	for i := range links {
		links[i] = fmt.Sprintf("https://%s/page-%02d", s.Domain, i+1)
	}
	direct := links
	if len(links) > 4 && rng.Float64() < 0.4 {
		direct = links[:len(links)/2]
	}
	s.Landing = refGeneratePage(u, profile, fmt.Sprintf("https://%s/", s.Domain), "landing", direct)
	s.Pages = make([]*Page, nPages)
	for i, link := range links {
		var sub []string
		for j := 0; j < 3 && nPages > 1; j++ {
			k := rng.Intn(nPages)
			if links[k] != link {
				sub = append(sub, links[k])
			}
		}
		if rng.Float64() < 0.3 {
			sub = append(sub, "https://partner-site.example/promo")
		}
		s.Pages[i] = refGeneratePage(u, profile, link, fmt.Sprintf("p%02d", i+1), sub)
	}
	return s
}

// refGenerateSiteAt takes the entry's epoch-0 site, refGenerateSite's,
// from its caller, so one base serves every epoch of an entry.
func refGenerateSiteAt(u *Universe, entry tranco.Entry, base *Site, epoch int) *Site {
	if epoch <= 0 || base.Unreachable {
		return base
	}

	seed := mix(uint64(u.cfg.Seed), hash64("site", entry.Site))
	rng := rand.New(rand.NewSource(int64(seed)))
	_ = rng.Float64()
	profile := buildSiteProfile(u, rng, entry.Site, entry.Rank)

	updated := map[int]int{}
	removed := map[int]bool{}
	extraPages := 0
	for e := 1; e <= epoch; e++ {
		erng := rand.New(rand.NewSource(int64(mix(seed, uint64(e)))))
		if len(profile.trackers) > 0 && erng.Float64() < trackerSwapProb {
			profile.trackers[erng.Intn(len(profile.trackers))] =
				u.trackers[erng.Intn(len(u.trackers))]
		}
		for i := range base.Pages {
			if erng.Float64() < pageUpdateProb {
				updated[i] = e
			}
		}
		if erng.Float64() < pageUpdateProb {
			updated[-1] = e
		}
		if erng.Float64() < pageTurnoverProb {
			if erng.Float64() < 0.5 && len(base.Pages) > len(removed)+1 {
				for {
					i := erng.Intn(len(base.Pages))
					if !removed[i] {
						removed[i] = true
						break
					}
				}
			} else {
				extraPages++
			}
		}
	}

	s := &Site{Domain: base.Domain, Rank: base.Rank}
	var links []string
	regen := func(url, id string, e int, pageLinks []string) *Page {
		pid := id
		if e > 0 {
			pid = fmt.Sprintf("%s@e%d", id, e)
		}
		return refGeneratePage(u, profile, url, pid, pageLinks)
	}
	for i := range base.Pages {
		if removed[i] {
			continue
		}
		links = append(links, base.Pages[i].URL)
	}
	for j := 0; j < extraPages; j++ {
		links = append(links, fmt.Sprintf("https://%s/page-%02d", s.Domain, len(base.Pages)+j+1))
	}
	s.Landing = regen(fmt.Sprintf("https://%s/", s.Domain), "landing", updated[-1], links)

	idx := 0
	for i := range base.Pages {
		if removed[i] {
			continue
		}
		s.Pages = append(s.Pages, regen(base.Pages[i].URL, fmt.Sprintf("p%02d", i+1), updated[i], crossLinks(links, idx)))
		idx++
	}
	for j := 0; j < extraPages; j++ {
		url := fmt.Sprintf("https://%s/page-%02d", s.Domain, len(base.Pages)+j+1)
		s.Pages = append(s.Pages, regen(url, fmt.Sprintf("p%02d", len(base.Pages)+j+1), epoch, crossLinks(links, idx)))
		idx++
	}
	return s
}

// TestGeneratorMatchesReference pins GenerateSite and GenerateSiteAt to
// the reference generator over two seeds, four page budgets, 40 ranked
// sites and epochs up to 30, plus the first unreachable site of each
// ranking. Each (seed, budget) universe runs as a parallel subtest.
// Short mode (the race-detector run) keeps one seed and four epochs.
func TestGeneratorMatchesReference(t *testing.T) {
	seeds, epochs := []int64{1, 2}, []int{0, 1, 2, 3, 8, 17, 30}
	if testing.Short() {
		seeds, epochs = seeds[:1], []int{0, 1, 8, 30}
	}
	for _, seed := range seeds {
		var unreachable tranco.Entry
		for _, e := range tranco.Generate(2000, seed).Entries() {
			roll := rand.New(rand.NewSource(int64(mix(uint64(seed), hash64("site", e.Site))))).Float64()
			if roll < 0.01 {
				unreachable = e
				break
			}
		}
		if unreachable.Site == "" {
			t.Fatalf("seed %d: no unreachable site in the ranking", seed)
		}
		entries := append(tranco.Generate(40, seed).Entries(), unreachable)
		for _, pps := range []int{1, 2, 4, 10} {
			t.Run(fmt.Sprintf("seed=%d/pages=%d", seed, pps), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(seed)
				cfg.PagesPerSite = pps
				u := New(cfg)
				if !u.GenerateSite(unreachable).Unreachable {
					t.Fatalf("%s should be unreachable", unreachable.Site)
				}
				for _, e := range entries {
					base := refGenerateSite(u, e)
					if !reflect.DeepEqual(u.GenerateSite(e), base) {
						t.Fatalf("%s: GenerateSite differs from the reference generator", e.Site)
					}
					for _, epoch := range epochs {
						if !reflect.DeepEqual(u.GenerateSiteAt(e, epoch), refGenerateSiteAt(u, e, base, epoch)) {
							t.Fatalf("%s, epoch %d: site differs from the reference generator", e.Site, epoch)
						}
					}
				}
			})
		}
	}
}
