package webgen

import (
	"fmt"
	"math/rand"

	"webmeasure/internal/tranco"
)

// The paper compares a ten-month-old browser against a current one to
// "simulate differences one would face when comparing current results to
// ones from previous studies" (§3.1.1) — but notes the web itself changes
// over time. GenerateSiteAt models that second axis: the same site at a
// later epoch keeps its identity (domain, rough structure, third-party
// relationships) while churning the parts that change in the wild —
// editorial content turns over, a tracker gets swapped, pages are added
// and retired. Epoch 0 is identical to GenerateSite.

// epochChurn tunes how much a site changes per epoch step.
const (
	// pageUpdateProb is the chance a given page's content was re-edited
	// in a given epoch (new images/articles under the same URL).
	pageUpdateProb = 0.45
	// trackerSwapProb is the chance a site swapped one tracker per epoch.
	trackerSwapProb = 0.3
	// pageTurnoverProb is the chance the site added/removed a page.
	pageTurnoverProb = 0.5
)

// GenerateSiteAt builds the site as it exists at the given epoch ≥ 0.
// Deterministic in (seed, entry, epoch); epoch 0 equals GenerateSite.
//
// A later epoch draws what it shares with epoch 0 from the site stream,
// in GenerateSite's order (the unreachable roll, the site profile and the
// page count), and names the base pages without generating them. One
// generator, reseeded per churn step and per page, drives the rest.
func (u *Universe) GenerateSiteAt(entry tranco.Entry, epoch int) *Site {
	if epoch <= 0 {
		return u.GenerateSite(entry)
	}
	seed := mix(uint64(u.cfg.Seed), hash64("site", entry.Site))
	rng := rand.New(rand.NewSource(int64(seed)))
	if rng.Float64() < unreachableProb { // no epoch changes an unreachable site
		return u.GenerateSite(entry)
	}
	profile := buildSiteProfile(u, rng, entry.Site, entry.Rank)
	nBase := u.pageCount(rng)

	// Accumulate churn per epoch step so drift grows with distance.
	gen := rand.New(rand.NewSource(0)) // reseeded before every use
	updated := make([]int, nBase)      // page index → latest epoch it was edited
	landingUpdated := 0
	removed := make([]bool, nBase)
	nRemoved, extraPages := 0, 0
	for e := 1; e <= epoch; e++ {
		gen.Seed(int64(mix(seed, uint64(e))))
		// Swap one tracker for a different one.
		if len(profile.trackers) > 0 && gen.Float64() < trackerSwapProb {
			profile.trackers[gen.Intn(len(profile.trackers))] =
				u.trackers[gen.Intn(len(u.trackers))]
		}
		// Content updates.
		for i := range nBase {
			if gen.Float64() < pageUpdateProb {
				updated[i] = e
			}
		}
		if gen.Float64() < pageUpdateProb {
			landingUpdated = e
		}
		// Page turnover.
		if gen.Float64() < pageTurnoverProb {
			if gen.Float64() < 0.5 && nBase > nRemoved+1 {
				// Retire a random page.
				for {
					i := gen.Intn(nBase)
					if !removed[i] {
						removed[i] = true
						nRemoved++
						break
					}
				}
			} else {
				extraPages++
			}
		}
	}

	s := &Site{Domain: entry.Site, Rank: entry.Rank}
	regen := func(url, id string, e int, pageLinks []string) *Page {
		pid := id
		if e > 0 {
			pid = fmt.Sprintf("%s@e%d", id, e)
		}
		return u.generatePage(gen, profile, url, pid, pageLinks)
	}
	var links []string
	for i := range nBase {
		if !removed[i] {
			links = append(links, subpageURL(s.Domain, i+1))
		}
	}
	for j := range extraPages {
		links = append(links, subpageURL(s.Domain, nBase+j+1))
	}
	s.Landing = regen(fmt.Sprintf("https://%s/", s.Domain), "landing", landingUpdated, links)

	idx := 0
	for i := range nBase {
		if removed[i] {
			continue
		}
		s.Pages = append(s.Pages, regen(links[idx], fmt.Sprintf("p%02d", i+1), updated[i], crossLinks(links, idx)))
		idx++
	}
	for j := range extraPages {
		s.Pages = append(s.Pages, regen(links[idx], fmt.Sprintf("p%02d", nBase+j+1), epoch, crossLinks(links, idx)))
		idx++
	}
	return s
}

// crossLinks gives a subpage a few sibling links, as GenerateSite does.
func crossLinks(links []string, i int) []string {
	if len(links) < 2 {
		return nil
	}
	var out []string
	for j := 1; j <= 2; j++ {
		out = append(out, links[(i+j)%len(links)])
	}
	return out
}
