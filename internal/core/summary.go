package core

import (
	"webmeasure/internal/dataset"
	"webmeasure/internal/measurement"
	"webmeasure/internal/stats"
)

// CrawlSummary reports the dataset-shaping numbers of §4 ("Success of
// Crawling Method").
type CrawlSummary struct {
	Sites            int
	Pages            int
	Visits           int
	VisitsPerProfile map[string]int
	SuccessRate      map[string]float64
	VettedSites      int
	VettedPages      int
	VettedShare      float64
	// Vetting breaks the excluded pages down by reason (§3.1).
	Vetting Vetting
	// PagesPerSite summarizes discovered pages per site.
	PagesPerSite stats.Summary
}

// visitTally is what the crawl summary reads of the input, counted as each
// site arrives: every visit, a repeated (page, profile) visit included,
// per profile with its successes, and every site's distinct pages.
type visitTally struct {
	visits    int
	byProfile map[string]profileTally
	sitePages map[string]int
}

type profileTally struct{ visits, ok int }

func newVisitTally() visitTally {
	return visitTally{byProfile: map[string]profileTally{}, sitePages: map[string]int{}}
}

// add counts a batch of page groups under their sites, and the visits
// they came from, or one visit per group entry when visits is nil.
func (t *visitTally) add(pages []*dataset.PageVisits, visits []*measurement.Visit) {
	for _, pv := range pages {
		t.sitePages[pv.Key.Site]++
		if visits == nil {
			for _, v := range pv.ByProfile {
				t.count(v)
			}
		}
	}
	for _, v := range visits {
		t.count(v)
	}
}

func (t *visitTally) count(v *measurement.Visit) {
	p := t.byProfile[v.Profile]
	p.visits++
	if v.Success {
		p.ok++
	}
	t.byProfile[v.Profile] = p
	t.visits++
}

// CrawlSummary computes the crawl-level summary.
func (a *Analysis) CrawlSummary() CrawlSummary {
	t := &a.tally
	s := CrawlSummary{
		Sites:            len(t.sitePages),
		Visits:           t.visits,
		VisitsPerProfile: make(map[string]int, len(t.byProfile)),
		SuccessRate:      make(map[string]float64, len(a.profiles)),
	}
	for prof, p := range t.byProfile {
		s.VisitsPerProfile[prof] = p.visits
	}
	for _, prof := range a.profiles {
		rate := 0.0
		if p := t.byProfile[prof]; p.visits > 0 {
			rate = float64(p.ok) / float64(p.visits)
		}
		s.SuccessRate[prof] = rate
	}
	counts := make([]int, 0, len(t.sitePages))
	for _, n := range t.sitePages {
		s.Pages += n
		counts = append(counts, n)
	}
	s.PagesPerSite = stats.SummarizeInts(counts)

	vettedSites := map[string]bool{}
	for _, pa := range a.pages {
		vettedSites[pa.Key.Site] = true
	}
	s.VettedSites = len(vettedSites)
	s.VettedPages = len(a.pages)
	s.Vetting = a.vetting
	if s.Pages > 0 {
		s.VettedShare = float64(s.VettedPages) / float64(s.Pages)
	}
	return s
}
