package urlutil

import (
	"math/rand"
	"net/url"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalizeStripsQueryValues(t *testing.T) {
	cases := []struct {
		in, want string
		stripped bool
	}{
		{"https://foo.com/scriptA.js?s_id=1234", "https://foo.com/scriptA.js?s_id=", true},
		{"https://foo.com/scriptA.js?s_id=abcd", "https://foo.com/scriptA.js?s_id=", true},
		{"https://foo.com/a.js", "https://foo.com/a.js", false},
		{"https://foo.com/a.js?x=&y=", "https://foo.com/a.js?x=&y=", false},
		{"https://foo.com/a.js?x=1&y=2", "https://foo.com/a.js?x=&y=", true},
		{"https://foo.com/a.js?b=2&a=1", "https://foo.com/a.js?b=&a=", true},
		{"https://foo.com/a#frag", "https://foo.com/a", false},
		{"HTTPS://FOO.com/Path?Q=1", "https://foo.com/Path?Q=", true},
		{"https://foo.com/a?flag", "https://foo.com/a?flag=", false},
		{"https://foo.com/a?x=1&x=2", "https://foo.com/a?x=", true},
		{"https://foo.com/a?&&x=9", "https://foo.com/a?x=", true},
	}
	for _, c := range cases {
		got, stripped := Normalize(c.in)
		if got != c.want || stripped != c.stripped {
			t.Errorf("Normalize(%q) = (%q, %v), want (%q, %v)", c.in, got, stripped, c.want, c.stripped)
		}
	}
}

func TestNormalizeCollapsesSessionVariants(t *testing.T) {
	a, _ := Normalize("https://cdn.example.com/lib.js?v=1.2.3&session=aaa")
	b, _ := Normalize("https://cdn.example.com/lib.js?v=2.0.0&session=bbb")
	if a != b {
		t.Errorf("session variants did not collapse: %q vs %q", a, b)
	}
}

func TestNormalizeUnparseable(t *testing.T) {
	bad := "http://[::1"
	got, stripped := Normalize(bad)
	if got != bad || stripped {
		t.Errorf("Normalize(%q) = (%q, %v), want identity", bad, got, stripped)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(path, q1, q2 string) bool {
		raw := "https://site.example/" + sanitize(path) + "?a=" + sanitize(q1) + "&b=" + sanitize(q2)
		once, _ := Normalize(raw)
		twice, again := Normalize(once)
		return once == twice && !again
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func TestHostAndSite(t *testing.T) {
	cases := []struct {
		in, host, site string
	}{
		{"https://www.example.com:8443/x", "www.example.com", "example.com"},
		{"https://a.b.example.co.uk/", "a.b.example.co.uk", "example.co.uk"},
		{"https://site-0001.example/page", "site-0001.example", "site-0001.example"},
		{"not a url at all ://", "", ""},
		{"https://com/", "com", ""},
	}
	for _, c := range cases {
		if got := Host(c.in); got != c.host {
			t.Errorf("Host(%q) = %q, want %q", c.in, got, c.host)
		}
		if got := Site(c.in); got != c.site {
			t.Errorf("Site(%q) = %q, want %q", c.in, got, c.site)
		}
	}
}

func TestIsThirdParty(t *testing.T) {
	page := "https://www.shop.example.com/checkout"
	cases := []struct {
		res  string
		want bool
	}{
		{"https://cdn.example.com/app.js", false},
		{"https://static.example.com/logo.png", false},
		{"https://tracker.ads-example.net/pixel.gif", true},
		{"https://example.org/widget.js", true},
		{"", true},
	}
	for _, c := range cases {
		if got := IsThirdParty(c.res, page); got != c.want {
			t.Errorf("IsThirdParty(%q, page) = %v, want %v", c.res, got, c.want)
		}
	}
}

func TestPathOf(t *testing.T) {
	if got := PathOf("https://x.example/a/b.js?q=1"); got != "/a/b.js" {
		t.Errorf("PathOf = %q", got)
	}
	if got := PathOf("http://[::1"); got != "" {
		t.Errorf("PathOf(bad) = %q, want empty", got)
	}
}

// TestShapes pins the split between the byte path and the net/url
// fallback. Each shape split must reject goes through Normalize, Host,
// PathOf and BuildKeyCache with net/url's results; the byte-path corner
// cases (a bare '?', a query of only '&'s, repeated names, an empty path)
// must give the same results without it.
func TestShapes(t *testing.T) {
	cases := []struct {
		name, in         string
		canonical        bool
		key              string
		stripped         bool
		host, path, site string
	}{
		{"upper-case scheme", "HTTPS://foo.example/a?x=1", false, "https://foo.example/a?x=", true, "foo.example", "/a", "foo.example"},
		{"upper-case host", "https://CDN.Foo.example/x.js", false, "https://cdn.foo.example/x.js", false, "cdn.foo.example", "/x.js", "foo.example"},
		{"port", "https://foo.example:8443/x?a=1", false, "https://foo.example:8443/x?a=", true, "foo.example", "/x", "foo.example"},
		{"userinfo", "https://user:pw@foo.example/x", false, "https://user:pw@foo.example/x", false, "foo.example", "/x", "foo.example"},
		{"percent escape", "https://foo.example/a%20b?q=%41", false, "https://foo.example/a%20b?q=", true, "foo.example", "/a b", "foo.example"},
		{"fragment", "https://foo.example/a?x=1#top", false, "https://foo.example/a?x=", true, "foo.example", "/a", "foo.example"},
		{"IPv6 literal", "http://[::1]:8080/p?a=1", false, "http://[::1]:8080/p?a=", true, "::1", "/p", ""},
		{"empty host", "https:///x?a=1", false, "https:///x?a=", true, "", "/x", ""},
		{"space in path", "https://foo.example/a b", false, "https://foo.example/a%20b", false, "foo.example", "/a b", "foo.example"},
		{"bare ?", "https://foo.example/a?", true, "https://foo.example/a?", false, "foo.example", "/a", "foo.example"},
		{"?& only", "https://foo.example/a?&", true, "https://foo.example/a", false, "foo.example", "/a", "foo.example"},
		{"repeated names", "https://foo.example/a?x=1&y&x=2", true, "https://foo.example/a?x=&y=", true, "foo.example", "/a", "foo.example"},
		{"empty path", "https://h.example?x=1", true, "https://h.example?x=", true, "h.example", "", "h.example"},
		{"already a key", "https://foo.example/a?x=&y=", true, "https://foo.example/a?x=&y=", false, "foo.example", "/a", "foo.example"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := split(c.in); ok != c.canonical {
				t.Errorf("split(%q) ok = %v, want %v", c.in, ok, c.canonical)
			}
			if key, stripped := Normalize(c.in); key != c.key || stripped != c.stripped {
				t.Errorf("Normalize = (%q, %v), want (%q, %v)", key, stripped, c.key, c.stripped)
			}
			if got := Host(c.in); got != c.host {
				t.Errorf("Host = %q, want %q", got, c.host)
			}
			if got := PathOf(c.in); got != c.path {
				t.Errorf("PathOf = %q, want %q", got, c.path)
			}
			cache := BuildKeyCache([]string{c.in}, 1)
			key, id, stripped, ok := cache.Lookup(c.in)
			if !ok || key != c.key || stripped != c.stripped {
				t.Errorf("Lookup = (%q, %v, %v), want (%q, %v)", key, stripped, ok, c.key, c.stripped)
			}
			if got := cache.SiteByID(id); got != c.site {
				t.Errorf("SiteByID = %q, want %q", got, c.site)
			}
		})
	}
}

// TestBytePathMatchesParse drives random URLs of the canonical shape,
// biased towards its corner cases, through both paths: every key,
// stripped flag, host and path must equal net/url's.
func TestBytePathMatchesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(alphabet string, n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		raw := []string{"http://", "https://", "ws://", "wss://"}[rng.Intn(4)] + pick("ab.-9", 1+rng.Intn(6))
		if rng.Intn(4) > 0 {
			raw += "/" + pick("aZ9-._~/$&+,:;=@", rng.Intn(8))
		}
		if rng.Intn(4) > 0 {
			raw += "?" + pick("ab=&?!~%", rng.Intn(10))
		}
		p, ok := split(raw)
		if !ok {
			t.Fatalf("split(%q) rejected a canonical URL", raw)
		}
		checkBytePath(t, raw, p)
	}
}

// checkBytePath fails unless the byte path's key, stripped flag, host and
// path for raw (which split accepted as p) equal the net/url path's.
func checkBytePath(t *testing.T, raw string, p urlParts) {
	t.Helper()
	key, stripped := normalizeSplit(raw, p)
	wantKey, wantStripped, wantHost := normalizeParsed(raw)
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatalf("split accepted %q, which net/url rejects: %v", raw, err)
	}
	if key != wantKey || stripped != wantStripped {
		t.Fatalf("byte path %q → (%q, %v), net/url → (%q, %v)", raw, key, stripped, wantKey, wantStripped)
	}
	if p.host != wantHost || p.host != strings.ToLower(u.Hostname()) {
		t.Fatalf("byte path %q → host %q, net/url → %q", raw, p.host, wantHost)
	}
	if p.path != u.Path {
		t.Fatalf("byte path %q → path %q, net/url → %q", raw, p.path, u.Path)
	}
}

var sinkKey string

func BenchmarkNormalize(b *testing.B) {
	for _, bc := range []struct{ name, raw string }{
		{"bytes", "https://cdn.site-0042.example/assets/lib.js?v=1.8.2&session=f00ba4&ab=exp7"},
		{"parse", "https://cdn.site-0042.example:443/assets/lib.js?v=1.8.2&session=f00ba4&ab=exp7"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkKey, _ = Normalize(bc.raw)
			}
		})
	}
}
