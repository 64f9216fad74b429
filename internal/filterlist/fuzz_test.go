package filterlist

import "testing"

// FuzzParseRule: arbitrary rule lines must parse or error, never panic,
// and parsed rules must be matchable against arbitrary URLs.
func FuzzParseRule(f *testing.F) {
	for _, s := range []string{
		"||ads.example.com^",
		"/track/^$third-party,image",
		"@@||good.example/path$script",
		"|https://exact.example/x|",
		"a*b*c^",
		"$domain=a.example|~b.example",
		"!comment",
		"##cosmetic",
		"pattern$unknown=opt",
	} {
		f.Add(s, "https://host.example/track/p.gif?x=1")
	}
	f.Fuzz(func(t *testing.T, line, url string) {
		r, err := ParseRule(line)
		if err != nil || r == nil {
			return
		}
		// Matching must not panic on arbitrary URLs.
		_ = r.MatchRequest(Request{URL: url, PageURL: "https://page.example/", Type: TypeScript})
	})
}

// FuzzListMatch: a compiled list must answer every request as a linear
// scan of its rules does (some block rule matches through Rule.MatchRequest
// and no exception does), whatever the request URL, page URL and type.
func FuzzListMatch(f *testing.F) {
	f.Add("||t.example^\n/px^$image\n@@||t.example/ok/", "https://t.example/px.gif", "https://p.example/", uint16(TypeImage))
	f.Add("a*b\nc^d", "https://acb.example/c/d", "", uint16(0))
	f.Add("||cdn.example^$third-party\n/w$domain=p.example|~q.p.example", "https://cdn.example/w.js", "https://q.p.example/", uint16(TypeScript))
	// Rules sharing tokens: each is filed under the one only it holds.
	f.Add("||adsync-metrics.example^\n||pixtag-metrics.example^\n||omnimax-metrics.example^", "https://cdn.pixtag-metrics.example/t.js", "https://p.example/", uint16(TypeScript))
	f.Fuzz(func(t *testing.T, text, url, pageURL string, typ uint16) {
		if len(text) > 1<<16 {
			return // keep each case fast: the linear scan parses the text again
		}
		l, rules := parseRules(text)
		req := Request{URL: url, PageURL: pageURL, Type: RequestType(typ)}
		if got, want := l.Matches(req), linearMatch(rules, req); got != want {
			t.Fatalf("%+v: list %v, linear scan %v", req, got, want)
		}
	})
}
