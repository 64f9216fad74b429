package webmeasure

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"webmeasure/internal/core"
	"webmeasure/internal/measurement"
	"webmeasure/internal/stats"
)

// TestVisitTablesMatchOracle recomputes, with plain loops over a Run's own
// visits, every value the crawl summary, the timing report and the cookie
// study take from raw visits, and requires Export's values to match
// exactly: on the Run and on a columnar reload of it, for a clean, a
// heavy-fault and a stateful crawl. The goldens only pin these tables to
// earlier builds; the oracle pins them to the visits.
func TestVisitTablesMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{Seed: 31}},
		{"heavy", Config{Seed: 33, FaultProfile: "heavy"}},
		{"stateful", Config{Seed: 35, Stateful: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Sites, cfg.PagesPerSite, cfg.Workers = 10, 4, 2
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := visitOracle(res.Dataset().Visits(), res.Analysis().Profiles())
			if want.summary.VettedPages == 0 || want.cookies.TotalObservations == 0 {
				t.Fatalf("the crawl vets %d pages and observes %d cookies; the oracle checks nothing",
					want.summary.VettedPages, want.cookies.TotalObservations)
			}
			var col bytes.Buffer
			if err := res.WriteDatasetCol(&col); err != nil {
				t.Fatal(err)
			}
			reload, err := LoadAndAnalyzeContext(context.Background(), &col, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, side := range []struct {
				name string
				res  *Results
			}{{"run", res}, {"col", reload}} {
				x := side.res.exp.Export()
				want.check(t, side.name, x)
			}
		})
	}
}

// oracleValues are the oracle's expected values.
type oracleValues struct {
	summary  core.CrawlSummary // Vetting left zero: the oracle does not rank exclusions
	timing   core.TimingReport
	cookies  core.CookieStudyResult // only the three counts
	profiles []string
}

// visitOracle derives the expected values from visits the slow way. A
// page is vetted when every profile's visit to it succeeded cleanly and
// recorded a request (a tree needs one); a later visit of a (page,
// profile) pair replaces an earlier one, as the dataset's page groups do.
func visitOracle(visits []*measurement.Visit, profiles []string) oracleValues {
	type pageKey struct{ site, page string }
	o := oracleValues{profiles: profiles}
	s := &o.summary
	s.VisitsPerProfile = map[string]int{}
	s.SuccessRate = map[string]float64{}
	sites := map[string]bool{}
	pages := map[pageKey]map[string]*measurement.Visit{}
	okPerProfile := map[string]int{}
	for _, v := range visits {
		s.Visits++
		s.VisitsPerProfile[v.Profile]++
		if v.Success {
			okPerProfile[v.Profile]++
		}
		sites[v.Site] = true
		k := pageKey{v.Site, v.PageURL}
		if pages[k] == nil {
			pages[k] = map[string]*measurement.Visit{}
		}
		pages[k][v.Profile] = v
	}
	s.Sites, s.Pages = len(sites), len(pages)
	for _, p := range profiles {
		s.SuccessRate[p] = 0
		if n := s.VisitsPerProfile[p]; n > 0 {
			s.SuccessRate[p] = float64(okPerProfile[p]) / float64(n)
		}
	}
	perSite := map[string]int{}
	for k := range pages {
		perSite[k.site]++
	}
	var counts []int
	for _, n := range perSite {
		counts = append(counts, n)
	}
	s.PagesPerSite = stats.SummarizeInts(counts)

	vettedSites := map[string]bool{}
	var deviations, durations []float64
	timeouts, timed := 0, 0
	distinct := map[string]bool{}
	o.cookies.PerProfile = map[string]int{}
	for k, byProfile := range pages {
		vetted := true
		for _, p := range profiles {
			v := byProfile[p]
			if v == nil || !v.Success || v.Status == measurement.VisitDegraded || len(v.Requests) == 0 {
				vetted = false
			}
		}
		if !vetted {
			continue
		}
		s.VettedPages++
		vettedSites[k.site] = true
		lo, hi := 0.0, 0.0
		for i, p := range profiles {
			v := byProfile[p]
			timed++
			durations = append(durations, float64(v.DurationMS))
			if v.DurationMS >= core.PageTimeoutMS {
				timeouts++
			}
			if i == 0 || v.StartOffsetS < lo {
				lo = v.StartOffsetS
			}
			if i == 0 || v.StartOffsetS > hi {
				hi = v.StartOffsetS
			}
			for _, c := range v.Cookies {
				o.cookies.TotalObservations++
				o.cookies.PerProfile[p]++
				distinct[c.Name+"\x00"+c.Domain+"\x00"+c.Path] = true
			}
		}
		deviations = append(deviations, hi-lo)
	}
	s.VettedSites = len(vettedSites)
	if s.Pages > 0 {
		s.VettedShare = float64(s.VettedPages) / float64(s.Pages)
	}
	o.timing.StartDeviation = stats.Summarize(deviations)
	o.timing.Duration = stats.Summarize(durations)
	if timed > 0 {
		o.timing.TimeoutShare = float64(timeouts) / float64(timed)
	}
	o.cookies.DistinctCookies = len(distinct)
	return o
}

// check compares an export's values with the oracle's.
func (o oracleValues) check(t *testing.T, side string, x *core.Export) {
	t.Helper()
	got := x.CrawlSummary
	got.Vetting = core.Vetting{}
	if !reflect.DeepEqual(got, o.summary) {
		t.Errorf("%s: crawl summary\n got %+v\nwant %+v", side, got, o.summary)
	}
	if x.Timing != o.timing {
		t.Errorf("%s: timing\n got %+v\nwant %+v", side, x.Timing, o.timing)
	}
	c := x.CookieStudy
	if c.TotalObservations != o.cookies.TotalObservations || c.DistinctCookies != o.cookies.DistinctCookies ||
		!reflect.DeepEqual(c.PerProfile, o.cookies.PerProfile) {
		t.Errorf("%s: cookie counts %d observations, %d distinct, %v per profile; want %d, %d, %v", side,
			c.TotalObservations, c.DistinctCookies, c.PerProfile,
			o.cookies.TotalObservations, o.cookies.DistinctCookies, o.cookies.PerProfile)
	}
}
