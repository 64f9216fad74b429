package urlutil

import (
	"strings"
	"testing"
)

// FuzzNormalize guards the node-identity normalization against arbitrary
// input: it must never panic, must be idempotent, and must never leave a
// non-empty query value behind.
func FuzzNormalize(f *testing.F) {
	seeds := []string{
		"https://foo.com/scriptA.js?s_id=1234",
		"https://foo.com/a.js?x=&y=",
		"http://[::1",
		"//proto-relative.example/x?a=b",
		"https://h.example/p?a=1&a=2&b&c=",
		"https://h.example/%zz?bad=escape",
		"?only=query",
		strings.Repeat("a", 300) + "?k=v",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		norm, _ := Normalize(raw)
		again, stripped := Normalize(norm)
		if again != norm {
			t.Fatalf("not idempotent: %q → %q → %q", raw, norm, again)
		}
		if stripped {
			t.Fatalf("second pass stripped values: %q → %q", raw, norm)
		}
	})
}

// FuzzSite guards eTLD+1 extraction: never panic; the result, when
// non-empty, must be a suffix of the host.
func FuzzSite(f *testing.F) {
	for _, s := range []string{
		"https://a.b.example.co.uk/x",
		"https://com/",
		"https://127.0.0.1:8080/",
		"garbage",
		"https://.leading.dot.example/",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		site := Site(raw)
		if site == "" {
			return
		}
		// The PSL layer canonicalizes FQDN trailing dots away.
		host := strings.TrimSuffix(Host(raw), ".")
		if host != site && !strings.HasSuffix(host, "."+site) {
			t.Fatalf("Site(%q) = %q not a suffix of host %q", raw, site, host)
		}
	})
}

// FuzzKeyCache pins the key cache to the functions it precomputes: for
// any strings, Lookup must return exactly Normalize's key and stripped
// flag, and SiteByID must equal Site of the normalized key — the per-host
// eTLD+1 resolution reads the host from the normalizing parse, so this is
// what keeps it equal to a fresh parse of the key. A cache Reset and
// refilled after holding other URLs must answer as a fresh one does.
func FuzzKeyCache(f *testing.F) {
	for _, s := range [][3]string{
		{"https://a.b.example.co.uk/x?s=1", "https://A.B.Example.co.uk/x?s=2", "https://b.example.co.uk/"},
		{"http://[::1]:80/p?a=1&a=2", "http://[fe80::1%25en0]/", "garbage"},
		{"HTTP://Host.EXAMPLE:8080/a#frag", "//proto-relative.example/x?a=b", "?only=query"},
		{"http://%C3%84.example/", "http://\xff.example/", "mailto:user@example.com"},
		{"http:////evil.example/x", "http:/path", "https://com/"},
	} {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, a, b, c string) {
		raws := []string{a, b, c}
		cache := BuildKeyCache(raws, len(raws))
		for _, raw := range raws {
			key, id, stripped, ok := cache.Lookup(raw)
			if !ok {
				t.Fatalf("Lookup(%q) missed a string of the cache's universe", raw)
			}
			wantKey, wantStripped := Normalize(raw)
			if key != wantKey || stripped != wantStripped {
				t.Fatalf("Lookup(%q) = (%q, %v), Normalize = (%q, %v)", raw, key, stripped, wantKey, wantStripped)
			}
			if id < 0 || int(id) >= cache.NumKeys() {
				t.Fatalf("Lookup(%q) id %d outside [0, %d)", raw, id, cache.NumKeys())
			}
			if got, want := cache.SiteByID(id), Site(key); got != want {
				t.Fatalf("SiteByID for %q (key %q) = %q, Site(key) = %q", raw, key, got, want)
			}
		}
		const stale = "https://stale.example/p?s=1"
		refilled := BuildKeyCache([]string{c, stale, b, a + "x"}, 4)
		refilled.Reset(len(raws))
		for _, raw := range raws {
			refilled.Add(raw)
		}
		if refilled.NumKeys() != cache.NumKeys() {
			t.Fatalf("refilled cache holds %d keys, a fresh one %d", refilled.NumKeys(), cache.NumKeys())
		}
		for _, raw := range append(raws, stale, a+"x") {
			key, id, stripped, ok := cache.Lookup(raw)
			rkey, rid, rstripped, rok := refilled.Lookup(raw)
			if key != rkey || id != rid || stripped != rstripped || ok != rok {
				t.Fatalf("Lookup(%q): refilled (%q, %d, %v, %v), fresh (%q, %d, %v, %v)", raw, rkey, rid, rstripped, rok, key, id, stripped, ok)
			}
			if ok && refilled.SiteByID(id) != cache.SiteByID(id) {
				t.Fatalf("SiteByID for %q: refilled %q, fresh %q", raw, refilled.SiteByID(id), cache.SiteByID(id))
			}
		}
	})
}

// FuzzBytePath pins the byte path to the net/url path it stands in for:
// whenever split accepts an input, the key, stripped flag, host and path
// must equal net/url's.
func FuzzBytePath(f *testing.F) {
	for _, s := range []string{
		"https://cdn.site-0042.example/assets/lib.js?v=1.8.2&session=f00ba4&ab=exp7",
		"http://a.example/p?",
		"https://a.example/p?&&",
		"https://h?x=1",
		"https://a.example/p?x=1&y&x=2&=3&=",
		"https://a.example/p??x=1",
		"https://a.example/:a@b;c=d$e+f,g&h~i?q=!*'()",
		"HTTPS://A.example/p?x=1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if p, ok := split(raw); ok {
			checkBytePath(t, raw, p)
		}
	})
}
