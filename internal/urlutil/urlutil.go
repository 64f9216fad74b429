// Package urlutil provides the URL handling used throughout the measurement
// pipeline: parsing, the query-value-stripping normalization from §3.2 of
// the paper (node identity), site (eTLD+1) extraction, and first-/third-
// party classification.
package urlutil

import (
	"net/url"
	"strings"

	"webmeasure/internal/psl"
)

// Normalize canonicalizes a URL into the node identity used when comparing
// dependency trees. Following §3.2 of the paper it keeps the scheme, host,
// and path, drops the fragment, and *keeps query parameter names while
// dropping their values*, so that
//
//	https://foo.com/scriptA.js?s_id=1234  and
//	https://foo.com/scriptA.js?s_id=abcd
//
// normalize to the same identity "https://foo.com/scriptA.js?s_id=".
// Parameter names keep their original order; repeated names are kept once.
// The boolean result reports whether any query value was actually dropped
// (the paper reports this applied to ~40% of observed URLs).
func Normalize(raw string) (norm string, stripped bool) {
	norm, stripped, _ = normalize(raw)
	return norm, stripped
}

// normalize is Normalize also returning the parsed URL (nil when raw does
// not parse), so BuildKeyCache can read the host from the same parse.
func normalize(raw string) (norm string, stripped bool, u *url.URL) {
	u, err := url.Parse(raw)
	if err != nil {
		// Unparseable URLs are compared verbatim; the paper compares
		// whatever string the instrumentation recorded.
		return raw, false, nil
	}
	u.Fragment = ""
	u.Host = strings.ToLower(u.Host)
	u.Scheme = strings.ToLower(u.Scheme)
	if u.RawQuery == "" {
		return u.String(), false, u
	}
	names := queryNames(u.RawQuery)
	var b strings.Builder
	seen := make(map[string]bool, len(names))
	for _, kv := range names {
		if seen[kv.name] {
			if kv.hasValue {
				stripped = true
			}
			continue
		}
		seen[kv.name] = true
		if b.Len() > 0 {
			b.WriteByte('&')
		}
		b.WriteString(kv.name)
		b.WriteByte('=')
		if kv.hasValue {
			stripped = true
		}
	}
	u.RawQuery = b.String()
	return u.String(), stripped, u
}

type queryName struct {
	name     string
	hasValue bool
}

// queryNames splits a raw query into parameter names, preserving order and
// recording whether each carried a non-empty value. It deliberately avoids
// url.ParseQuery so malformed queries degrade gracefully instead of being
// dropped wholesale.
func queryNames(rawQuery string) []queryName {
	parts := strings.Split(rawQuery, "&")
	out := make([]queryName, 0, len(parts))
	for _, p := range parts {
		if p == "" {
			continue
		}
		name, value, found := strings.Cut(p, "=")
		out = append(out, queryName{name: name, hasValue: found && value != ""})
	}
	return out
}

// Host returns the lower-cased host of raw without a port, or "" when the
// URL cannot be parsed or has no host.
func Host(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}

// Site returns the eTLD+1 of the URL's host using the embedded public suffix
// list — the paper's notion of a "site". It returns "" for URLs without a
// registrable host.
func Site(raw string) string {
	return SiteWithList(raw, psl.Default())
}

// SiteWithList is Site with an explicit public suffix list.
func SiteWithList(raw string, list *psl.List) string {
	h := Host(raw)
	if h == "" {
		return ""
	}
	return list.RegistrableDomain(h)
}

// SameSite reports whether the two URLs share an eTLD+1.
func SameSite(a, b string) bool {
	sa, sb := Site(a), Site(b)
	return sa != "" && sa == sb
}

// IsThirdParty reports whether resourceURL is third-party relative to the
// visited page pageURL, i.e. their eTLD+1s differ. Resources whose site
// cannot be determined are conservatively classified as third-party, which
// matches how measurement studies treat opaque origins.
func IsThirdParty(resourceURL, pageURL string) bool {
	rs, ps := Site(resourceURL), Site(pageURL)
	if rs == "" || ps == "" {
		return true
	}
	return rs != ps
}

// PathOf returns the path component of raw ("" if unparseable). Used by the
// filter list engine and by branch-merging diagnostics.
func PathOf(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return u.Path
}
