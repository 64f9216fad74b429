package filterlist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustRule(t *testing.T, line string) *Rule {
	t.Helper()
	r, err := ParseRule(line)
	if err != nil {
		t.Fatalf("ParseRule(%q): %v", line, err)
	}
	if r == nil {
		t.Fatalf("ParseRule(%q): unexpectedly ignored", line)
	}
	return r
}

func req(url string) Request {
	return Request{URL: url, PageURL: "https://site.example/page", Type: TypeScript}
}

func TestPlainSubstring(t *testing.T) {
	r := mustRule(t, "/banner/ad")
	if !r.MatchRequest(req("https://x.com/banner/ad.png")) {
		t.Error("substring should match")
	}
	if r.MatchRequest(req("https://x.com/banner/video.png")) {
		t.Error("should not match")
	}
}

func TestWildcard(t *testing.T) {
	r := mustRule(t, "/ads/*/banner")
	if !r.MatchRequest(req("https://x.com/ads/v2/banner.gif")) {
		t.Error("wildcard should match")
	}
	if r.MatchRequest(req("https://x.com/ads/banner")) {
		// '*' may match the empty string in ABP; /ads//banner would match,
		// but /ads/banner lacks the second slash... actually '*' can match
		// empty, making "/ads/" + "" + "/banner" require "/ads//banner".
		// "/ads/banner" has only one slash between, so no match.
		t.Error("should not match without intermediate segment")
	}
}

func TestWildcardMatchesEmpty(t *testing.T) {
	r := mustRule(t, "ad*s")
	if !r.MatchRequest(req("https://x.com/ads")) {
		t.Error("'*' should match the empty string")
	}
}

func TestSeparator(t *testing.T) {
	r := mustRule(t, "/track^")
	if !r.MatchRequest(req("https://x.com/track?id=1")) {
		t.Error("^ should match '?'")
	}
	if !r.MatchRequest(req("https://x.com/track/px.gif")) {
		t.Error("^ should match '/'")
	}
	if !r.MatchRequest(req("https://x.com/track")) {
		t.Error("^ should match end of URL")
	}
	if r.MatchRequest(req("https://x.com/tracker")) {
		t.Error("^ must not match a letter")
	}
	if r.MatchRequest(req("https://x.com/track-me")) {
		t.Error("^ must not match '-'")
	}
}

func TestDomainAnchor(t *testing.T) {
	r := mustRule(t, "||ads.example.com^")
	if !r.MatchRequest(req("https://ads.example.com/x.js")) {
		t.Error("should match at host start")
	}
	if !r.MatchRequest(req("https://sub.ads.example.com/x.js")) {
		t.Error("should match after a dot")
	}
	if r.MatchRequest(req("https://badads.example.com/x.js")) {
		t.Error("must not match mid-label")
	}
	if r.MatchRequest(req("https://example.com/ads.example.com/x.js")) {
		t.Error("must not match in the path")
	}
}

func TestStartEndAnchors(t *testing.T) {
	r := mustRule(t, "|https://cdn.")
	if !r.MatchRequest(req("https://cdn.x.com/a.js")) {
		t.Error("start anchor should match")
	}
	if r.MatchRequest(req("http://x.com/https://cdn.")) {
		t.Error("start anchor must match position 0 only")
	}
	r = mustRule(t, ".swf|")
	if !r.MatchRequest(req("https://x.com/movie.swf")) {
		t.Error("end anchor should match")
	}
	if r.MatchRequest(req("https://x.com/movie.swf?x=1")) {
		t.Error("end anchor must match URL end only")
	}
}

func TestThirdPartyOption(t *testing.T) {
	r := mustRule(t, "/pixel$third-party")
	third := Request{URL: "https://tracker.net/pixel.gif", PageURL: "https://site.example/", Type: TypeImage}
	first := Request{URL: "https://site.example/pixel.gif", PageURL: "https://site.example/", Type: TypeImage}
	if !r.MatchRequest(third) {
		t.Error("third-party request should match")
	}
	if r.MatchRequest(first) {
		t.Error("first-party request must not match $third-party")
	}
	r = mustRule(t, "/pixel$~third-party")
	if r.MatchRequest(third) || !r.MatchRequest(first) {
		t.Error("~third-party inverted")
	}
}

func TestDomainOption(t *testing.T) {
	r := mustRule(t, "/ad.js$domain=news.example|~blog.news.example")
	on := Request{URL: "https://cdn.net/ad.js", PageURL: "https://news.example/p", Type: TypeScript}
	sub := Request{URL: "https://cdn.net/ad.js", PageURL: "https://www.news.example/p", Type: TypeScript}
	excluded := Request{URL: "https://cdn.net/ad.js", PageURL: "https://blog.news.example/p", Type: TypeScript}
	off := Request{URL: "https://cdn.net/ad.js", PageURL: "https://other.example/p", Type: TypeScript}
	if !r.MatchRequest(on) || !r.MatchRequest(sub) {
		t.Error("domain include should match site and subdomains")
	}
	if r.MatchRequest(excluded) {
		t.Error("negated domain must win")
	}
	if r.MatchRequest(off) {
		t.Error("other domains must not match")
	}
}

func TestTypeOptions(t *testing.T) {
	r := mustRule(t, "/ads/$script,image")
	if !r.MatchRequest(Request{URL: "https://x.com/ads/a.js", Type: TypeScript}) {
		t.Error("script should match")
	}
	if r.MatchRequest(Request{URL: "https://x.com/ads/a.css", Type: TypeStylesheet}) {
		t.Error("stylesheet must not match $script,image")
	}
	r = mustRule(t, "/ads/$~image")
	if r.MatchRequest(Request{URL: "https://x.com/ads/a.gif", Type: TypeImage}) {
		t.Error("~image must exclude images")
	}
	if !r.MatchRequest(Request{URL: "https://x.com/ads/a.js", Type: TypeScript}) {
		t.Error("~image must keep scripts")
	}
}

func TestExceptionRules(t *testing.T) {
	l, skipped := Parse("||tracker.net^\n@@||tracker.net/allowed/$script\n")
	if skipped != 0 {
		t.Fatalf("skipped = %d", skipped)
	}
	if !l.Matches(req("https://tracker.net/pixel.gif")) {
		t.Error("block rule should apply")
	}
	if l.Matches(req("https://tracker.net/allowed/lib.js")) {
		t.Error("exception should override")
	}
}

func TestParseIgnoresCommentsAndCosmetic(t *testing.T) {
	text := `! comment
[Adblock Plus 2.0]
example.com##.ad-banner
##.generic-ad
||real-rule.net^
`
	l, skipped := Parse(text)
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0", skipped)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestParseSkipsBadRules(t *testing.T) {
	l, skipped := Parse("||good.net^\n$unknownopt=x\n*\n")
	// "$unknownopt=x" has no recognizable option → it is treated as a
	// pattern containing '$', which is fine; "*" alone is an empty pattern.
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if l.Len() < 1 {
		t.Error("good rule lost")
	}
}

// A line of any length is one rule, and the rules after it load.
func TestParseLongLine(t *testing.T) {
	long := "/" + strings.Repeat("x", 2<<20) + "^"
	l, skipped := Parse("||a.example^\n" + long + "\n||b.example^\n")
	if skipped != 0 || l.Len() != 3 {
		t.Fatalf("%d rules, %d skipped; want 3 and 0", l.Len(), skipped)
	}
	for _, url := range []string{"https://a.example/p.js", "https://x.example" + long[:len(long)-1], "https://b.example/p.js"} {
		if !l.Matches(req(url)) {
			t.Errorf("%.40s... does not match", url)
		}
	}
}

func TestDollarInPatternNotOptions(t *testing.T) {
	r := mustRule(t, "/path$weird")
	if r.pattern != "/path$weird" {
		t.Errorf("pattern = %q, want the $ kept", r.pattern)
	}
}

func TestTokenIndexSoundness(t *testing.T) {
	// The unanchored rule "track" must match inside a longer run; the index
	// must not lose it.
	l, _ := Parse("track\n")
	if !l.Matches(req("https://x.com/xtracky.js")) {
		t.Error("token index caused a missed substring match")
	}
	// Domain-anchored rule: token at pattern start is boundary-safe.
	l, _ = Parse("||example-ads.com^\n")
	if !l.Matches(req("https://example-ads.com/a.js")) {
		t.Error("anchored rule should match")
	}
	if l.Matches(req("https://notexample-ads.com.evil.net/a.js")) == false {
		// ||example-ads.com^ matches "example-ads.com." after the dot? The
		// host is notexample-ads.com.evil.net: positions after dots are
		// "com.evil.net" and "evil.net" and "net" — none starts with
		// "example-ads.com^", and host start is "notexample..." so no match.
		_ = l
	}
	if l.Matches(req("https://notexample-ads.com/a.js")) {
		t.Error("mid-label host match must not happen")
	}
}

// Every token ruleTokens lists is safe to file the rule under: whenever
// the rule's pattern matches a URL, the token is one of the URL's maximal
// alphanumeric runs. Parse may pick any of them, so each must hold. The
// URLs are the patterns themselves with random text around them and in
// place of their wildcards and separators, so a token that touches an
// unanchored edge or a wildcard lands inside a longer run.
func TestEveryRuleTokenIsSound(t *testing.T) {
	pieces := []string{"track", "er", "ads", "x", ".", "/", "-", "^", "*", "?"}
	rng := rand.New(rand.NewSource(7))
	text := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString([]string{"track", "er", "ads", "x", ".", "/", "-"}[rng.Intn(7)])
		}
		return b.String()
	}
	checked := 0
	for i := 0; i < 20000; i++ {
		anchor := []string{"", "|", "||"}[rng.Intn(3)]
		pattern := pieces[rng.Intn(3)]
		for n := rng.Intn(4); n > 0; n-- {
			pattern += pieces[rng.Intn(len(pieces))]
		}
		end := rng.Intn(3) == 0
		line := anchor + pattern
		if end {
			line += "|"
		}
		r, err := ParseRule(line)
		if err != nil || r == nil {
			continue
		}
		var inst strings.Builder
		for _, c := range pattern {
			switch c {
			case '*':
				inst.WriteString(text(rng.Intn(2)))
			case '^':
				inst.WriteString([]string{"/", "?", ""}[rng.Intn(3)])
			default:
				inst.WriteRune(c)
			}
		}
		url := inst.String()
		switch anchor {
		case "||":
			url = "https://" + []string{"", text(1) + "."}[rng.Intn(2)] + url
		case "":
			url = "https://" + text(rng.Intn(3)) + url
		}
		if !end {
			url += text(rng.Intn(3))
		}
		toks := ruleTokens(nil, r)
		if len(toks) == 0 || !r.matchURL(url) {
			continue
		}
		runs := map[string]bool{}
		for _, run := range strings.FieldsFunc(url, func(c rune) bool { return !isTokenByte(byte(c)) }) {
			runs[run] = true
		}
		for _, tok := range toks {
			if !runs[tok] {
				t.Fatalf("rule %q matches %q, but its token %q is no whole run of it", line, url, tok)
			}
		}
		checked++
	}
	if checked < 1000 {
		t.Fatalf("only %d rules with tokens matched their URL: the input exercises too little", checked)
	}
}

// parseRules compiles text twice: as a List, and as the plain rule slice
// linearMatch scans.
func parseRules(text string) (*List, []*Rule) {
	l, _ := Parse(text)
	var rules []*Rule
	for _, line := range strings.Split(text, "\n") {
		if r, err := ParseRule(line); err == nil && r != nil {
			rules = append(rules, r)
		}
	}
	return l, rules
}

// linearMatch is List.Matches without the token index or the shared
// per-request state: every rule is evaluated on its own through
// Rule.MatchRequest.
func linearMatch(rules []*Rule, rq Request) bool {
	blocked := false
	for _, r := range rules {
		if !r.Exception && r.MatchRequest(rq) {
			blocked = true
			break
		}
	}
	if !blocked {
		return false
	}
	for _, r := range rules {
		if r.Exception && r.MatchRequest(rq) {
			return false
		}
	}
	return true
}

// Property: List.Matches is equivalent to linearly scanning all rules. This
// guards the token index against missed matches, and the one match context
// a request shares across rules against answers a rule would not give on
// its own.
func TestIndexEquivalentToLinearScan(t *testing.T) {
	t.Run("patterns", func(t *testing.T) {
		l, parsed := parseRules(strings.Join([]string{
			"||ads-syndication.example^",
			"/track/^$third-party",
			"/pixel$image",
			"banner*ad",
			"|https://collect.",
			".gif|",
			"@@||ads-syndication.example/safe/",
		}, "\n"))
		if len(parsed) != 7 {
			t.Fatalf("%d of 7 rules parsed", len(parsed))
		}
		hosts := []string{"ads-syndication.example", "cdn.site.example", "collect.stats.net", "x.com"}
		paths := []string{"/track/", "/pixel.gif", "/banner/big-ad.js", "/safe/lib.js", "/a.gif", "/app.js"}
		types := []RequestType{TypeScript, TypeImage, TypeStylesheet, TypePing}
		f := func(h, p, ty uint8) bool {
			rq := Request{
				URL:     "https://" + hosts[int(h)%len(hosts)] + paths[int(p)%len(paths)],
				PageURL: "https://site.example/page",
				Type:    types[int(ty)%len(types)],
			}
			return l.Matches(rq) == linearMatch(parsed, rq)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
			t.Error(err)
		}
	})
	// Rules reading every part of the context, over requests that vary the
	// page (including none) and the type (including 0).
	t.Run("options", func(t *testing.T) {
		l, parsed := parseRules(`
/banner/ad
||tracker.example^
||cdn.example/pix$third-party
/widget$domain=site.example|other.example
/analytics$domain=~quiet.example
/video$media
@@||tracker.example/allowed^
`)
		if len(parsed) != 7 {
			t.Fatalf("%d of 7 rules parsed", len(parsed))
		}
		urls := []string{
			"https://a.example/banner/ad.png",
			"https://tracker.example/t.js",
			"https://tracker.example/allowed/t.js",
			"https://cdn.example/pix.gif",
			"https://site.example/widget.js",
			"https://b.example/analytics.js",
			"https://c.example/video.mp4",
			"https://c.example/plain.css",
		}
		pages := []string{
			"https://site.example/index",
			"https://other.example/a",
			"https://quiet.example/b",
			"https://cdn.example/self",
			"",
		}
		types := []RequestType{TypeScript, TypeImage, TypeMedia, TypeStylesheet, 0}
		rng := rand.New(rand.NewSource(51))
		matched := 0
		for i := 0; i < 5000; i++ {
			rq := Request{
				URL:     urls[rng.Intn(len(urls))],
				PageURL: pages[rng.Intn(len(pages))],
				Type:    types[rng.Intn(len(types))],
			}
			got := l.Matches(rq)
			if want := linearMatch(parsed, rq); got != want {
				t.Fatalf("request %d (%+v): list %v, linear scan %v", i, rq, got, want)
			}
			if got {
				matched++
			}
		}
		if matched == 0 {
			t.Error("no request matched: the input exercises nothing")
		}
	})
}

// One request's match context is built once for all the rules its tokens
// select, so List.Matches allocates no more with 100 candidate rules than
// with one. In each family "example" is every rule's only index-safe
// token, so all of them are filed under it, and none matches; they fail on
// the pattern, on the page host and on the third-party bit.
func TestMatchesAllocsIndependentOfCandidates(t *testing.T) {
	rq := Request{URL: "https://host.example/other.js", PageURL: "https://site.example/", Type: TypeScript}
	for _, format := range []string{
		"||example/p%d*$third-party\n",
		"||example^$domain=p%d.example\n",
		"||example^$~third-party,domain=p%d.example\n",
	} {
		allocs := func(n int) float64 {
			var sb strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&sb, format, i)
			}
			l, skipped := Parse(sb.String())
			if skipped != 0 || len(l.indexed["example"]) != n {
				t.Fatalf("%q: %d skipped, %d rules under the token", format, skipped, len(l.indexed["example"]))
			}
			if l.Matches(rq) {
				t.Fatalf("%q: the request must not match", format)
			}
			return testing.AllocsPerRun(100, func() { l.Matches(rq) })
		}
		if one, hundred := allocs(1), allocs(100); hundred > one {
			t.Errorf("%q: %v allocations per call with 100 candidate rules, %v with 1", format, hundred, one)
		}
	}
}

func TestMatchCaseInsensitive(t *testing.T) {
	r := mustRule(t, "/TRACK/")
	if !r.MatchRequest(req("https://x.com/track/a.js")) {
		t.Error("matching should be case-insensitive")
	}
}

func BenchmarkListMatch(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		sb.WriteString("||tracker-")
		sb.WriteByte(byte('a' + i%26))
		sb.WriteString("-net.example^\n")
	}
	sb.WriteString("/track/^\n/pixel$image\n")
	l, _ := Parse(sb.String())
	rq := Request{URL: "https://cdn.site.example/assets/app.js?v=3", PageURL: "https://site.example/", Type: TypeScript}
	hit := Request{URL: "https://stats.net/track/p.gif", PageURL: "https://site.example/", Type: TypeImage}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Matches(rq)
		l.Matches(hit)
	}
}

func TestMerge(t *testing.T) {
	a, _ := Parse("||tracker-a.example^\n@@||tracker-a.example/ok/\n")
	b, _ := Parse("/telemetry^\n")
	m := Merge(a, b, nil)
	if m.Len() != a.Len()+b.Len() {
		t.Errorf("merged Len = %d, want %d", m.Len(), a.Len()+b.Len())
	}
	if !m.Matches(req("https://tracker-a.example/p.gif")) {
		t.Error("rule from first list lost")
	}
	if !m.Matches(req("https://x.example/telemetry/x")) {
		t.Error("rule from second list lost")
	}
	if m.Matches(req("https://tracker-a.example/ok/x.js")) {
		t.Error("exception from first list lost")
	}
	if m.Matches(req("https://clean.example/app.js")) {
		t.Error("merged list over-matches")
	}
	if empty := Merge(); empty.Matches(req("https://x.example/telemetry")) {
		t.Error("empty merge must match nothing")
	}
}

func TestMatchEmptyURL(t *testing.T) {
	// Regression: an unanchored rule matched against an empty URL used to
	// slice out of range (found by FuzzParseRule).
	r := mustRule(t, "trac*.^x")
	if r.MatchRequest(Request{URL: "", PageURL: "https://p.example/", Type: TypeScript}) {
		t.Error("empty URL must not match")
	}
	l, _ := Parse("track\n||d.example^\n")
	if l.Matches(Request{URL: "", PageURL: "https://p.example/", Type: TypeScript}) {
		t.Error("empty URL must not match any list")
	}
}
