package filterlist

import (
	"context"
	"testing"

	"webmeasure/internal/crawler"
	"webmeasure/internal/measurement"
	"webmeasure/internal/tranco"
	"webmeasure/internal/webgen"
)

// generatedCrawl crawls a small generated universe and returns it with
// every request the crawl recorded, each with the URL of the page that
// issued it and its own type.
func generatedCrawl(tb testing.TB, seed int64) (*webgen.Universe, []Request) {
	tb.Helper()
	u := webgen.New(webgen.DefaultConfig(seed))
	ds, _, err := crawler.Run(context.Background(), crawler.Config{
		Universe:    u,
		Sites:       tranco.Generate(10, seed).Entries(),
		MaxPages:    3,
		Instances:   2,
		SiteWorkers: 1,
		Seed:        seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var reqs []Request
	for _, v := range ds.Visits() {
		for _, r := range v.Requests {
			reqs = append(reqs, Request{URL: r.URL, PageURL: v.PageURL, Type: requestType(r.Type)})
		}
	}
	if len(reqs) == 0 {
		tb.Fatal("the crawl recorded no requests")
	}
	return u, reqs
}

// requestType is the tree builder's mapping of a recorded resource type
// onto the engine's (tree.filterType, which this package cannot import).
func requestType(t measurement.ResourceType) RequestType {
	switch t {
	case measurement.TypeScript:
		return TypeScript
	case measurement.TypeImage, measurement.TypeImageset:
		return TypeImage
	case measurement.TypeStylesheet:
		return TypeStylesheet
	case measurement.TypeSubFrame:
		return TypeSubdocument
	case measurement.TypeXHR:
		return TypeXMLHTTPRequest
	case measurement.TypeWebSocket:
		return TypeWebSocket
	case measurement.TypeFont:
		return TypeFont
	case measurement.TypeMedia:
		return TypeMedia
	case measurement.TypeBeacon:
		return TypePing
	case measurement.TypeMainFrame:
		return TypeDocument
	case measurement.TypeCSPReport:
		return TypeCSPReport
	default:
		return TypeOther
	}
}

// The token index answers as a linear scan does on the program's own lists
// and traffic: every request of a generated crawl, with its page URL,
// under its own type and under type 0, against the generated filter list,
// the privacy list and their merge.
func TestMatchesGeneratedTraffic(t *testing.T) {
	u, reqs := generatedCrawl(t, 7)
	base, baseRules := parseRules(u.FilterListText())
	privacy, privacyRules := parseRules(u.PrivacyListText())
	lists := []struct {
		name  string
		list  *List
		rules []*Rule
	}{
		{"filter", base, baseRules},
		{"privacy", privacy, privacyRules},
		{"merged", Merge(base, privacy), append(append([]*Rule(nil), baseRules...), privacyRules...)},
	}
	for _, l := range lists {
		matched := 0
		for _, rq := range reqs {
			for _, typ := range []RequestType{rq.Type, 0} {
				rq.Type = typ
				got := l.list.Matches(rq)
				if want := linearMatch(l.rules, rq); got != want {
					t.Fatalf("%s list, %+v: list %v, linear scan %v", l.name, rq, got, want)
				}
				if got {
					matched++
				}
			}
		}
		if matched == 0 {
			t.Errorf("%s list matched none of %d requests: the input exercises nothing", l.name, len(reqs))
		}
	}
}

// A generated list files no more than two block rules under one token.
// Indexed under their longest tokens, its "||<service>^" rules pile up
// under "example" or "metrics" (9 to 18 of them), and every request
// carrying the word tries them all; under their rarest tokens only the
// two services of a name, one ad network and one tracker, can share one.
func TestGeneratedListTokenBuckets(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		l, skipped := Parse(webgen.New(webgen.DefaultConfig(seed)).FilterListText())
		if skipped != 0 || len(l.untokenized) != 0 {
			t.Fatalf("seed %d: %d rules skipped, %d untokenized", seed, skipped, len(l.untokenized))
		}
		for tok, rules := range l.indexed {
			if len(rules) > 2 {
				t.Errorf("seed %d: %d block rules under %q", seed, len(rules), tok)
			}
		}
	}
}

// BenchmarkMatchGenerated classifies the requests of a generated crawl
// against the universe's filter list, as the tree builder does for every
// node; one op matches every request once.
func BenchmarkMatchGenerated(b *testing.B) {
	u, reqs := generatedCrawl(b, 7)
	l, _ := Parse(u.FilterListText())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched := 0
		for _, rq := range reqs {
			if l.Matches(rq) {
				matched++
			}
		}
		matchSink = matched
	}
	b.ReportMetric(float64(len(reqs)), "requests/op")
}

var matchSink int
