// Package urlutil provides the URL handling used throughout the measurement
// pipeline: parsing, the query-value-stripping normalization from §3.2 of
// the paper (node identity), site (eTLD+1) extraction, and first-/third-
// party classification.
//
// URLs in the canonical shape that net/url prints back unchanged — a
// lower-case http(s) or ws(s) scheme and host, a plain path and a
// printable query (see split) — are cut at their byte boundaries: a host,
// path or site is a substring of the URL, and a key is the URL itself or,
// with a query, one allocation. Every other URL goes through
// net/url.Parse, which also stays the reference the byte path is tested
// against (FuzzBytePath, TestBytePathMatchesParse).
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

// normalize is Normalize also returning the lower-cased host ("" when raw
// does not parse or has none), so BuildKeyCache resolves the site without
// a second parse.
func normalize(raw string) (norm string, stripped bool, host string) {
	if p, ok := split(raw); ok {
		norm, stripped = normalizeSplit(raw, p)
		return norm, stripped, p.host
	}
	return normalizeParsed(raw)
}

// normalizeParsed is normalize through net/url.Parse: the path of every
// URL outside the canonical shape split recognizes, and the reference the
// byte path is tested against.
func normalizeParsed(raw string) (norm string, stripped bool, host string) {
	u, err := url.Parse(raw)
	if err != nil {
		// Unparseable URLs are compared verbatim; the paper compares
		// whatever string the instrumentation recorded.
		return raw, false, ""
	}
	u.Fragment = ""
	u.Host = strings.ToLower(u.Host)
	u.Scheme = strings.ToLower(u.Scheme)
	host = u.Hostname()
	if u.RawQuery == "" {
		return u.String(), false, host
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
	return u.String(), stripped, host
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

// urlParts are the components split cuts a canonical URL into, each a
// substring of it.
type urlParts struct {
	host, path string
	// query is the raw query after the first '?', "" without one.
	query string
}

// split recognizes the canonical URL shape, the one net/url parses and
// prints back byte for byte with nothing to lower-case, unescape or drop:
//
//   - the scheme is "http://", "https://" or their WebSocket twins
//     "ws://" and "wss://";
//   - the host is non-empty and made only of [a-z0-9.-] (no port,
//     userinfo or brackets);
//   - the optional path holds only unreserved bytes and /$&+,:;=@ (no
//     '%' escapes);
//   - the optional query holds only bytes 0x21–0x7e other than '#'.
//
// ok is false for any other string; callers then take the net/url path.
func split(raw string) (p urlParts, ok bool) {
	scheme, rest, found := strings.Cut(raw, "://")
	switch {
	case !found:
		return p, false
	case scheme == "https", scheme == "http", scheme == "wss", scheme == "ws":
	default:
		return p, false
	}
	i := 0
	for i < len(rest) && isHostByte(rest[i]) {
		i++
	}
	if i == 0 {
		return p, false
	}
	p.host, rest = rest[:i], rest[i:]
	if rest != "" && rest[0] == '/' {
		i = 0
		for i < len(rest) && isPathByte(rest[i]) {
			i++
		}
		p.path, rest = rest[:i], rest[i:]
	}
	if rest == "" {
		return p, true
	}
	if rest[0] != '?' {
		return p, false
	}
	p.query = rest[1:]
	for i := 0; i < len(p.query); i++ {
		if c := p.query[i]; c < 0x21 || c > 0x7e || c == '#' {
			return p, false
		}
	}
	return p, true
}

func isHostByte(c byte) bool {
	return 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '.' || c == '-'
}

func isPathByte(c byte) bool {
	if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
		return true
	}
	switch c {
	case '-', '.', '_', '~', '/', '$', '&', '+', ',', ':', ';', '=', '@':
		return true
	}
	return false
}

// normalizeSplit is normalize's query rewrite on a split canonical URL.
// It matches the net/url path byte for byte: a bare trailing '?' stays, a
// query of only '&'s drops the '?', and no '/' is inserted before the
// query of an empty path. Without a query the key is raw itself; with one
// it is a single allocation, sized by a first pass.
func normalizeSplit(raw string, p urlParts) (norm string, stripped bool) {
	q := p.query
	if q == "" {
		return raw, false
	}
	prefix := raw[:len(raw)-len(q)] // through the '?'
	// Pass one: size the key.
	size, unique, dups := len(prefix), 0, false
	for at := 0; at <= len(q); {
		start := at
		var part string
		if part, at = nextPart(q, at); part == "" {
			continue
		}
		name, value, _ := strings.Cut(part, "=")
		if value != "" {
			stripped = true
		}
		if seenName(q[:start], name) {
			dups = true
			continue
		}
		size += len(name) + 1
		unique++
	}
	if unique == 0 {
		return prefix[:len(prefix)-1], stripped
	}
	// Pass two: write the first occurrence of every name.
	var b strings.Builder
	b.Grow(size + unique - 1)
	b.WriteString(prefix)
	for at := 0; at <= len(q); {
		start := at
		var part string
		if part, at = nextPart(q, at); part == "" {
			continue
		}
		name, _, _ := strings.Cut(part, "=")
		if dups && seenName(q[:start], name) {
			continue
		}
		if b.Len() > len(prefix) {
			b.WriteByte('&')
		}
		b.WriteString(name)
		b.WriteByte('=')
	}
	return b.String(), stripped
}

// nextPart returns the '&'-separated part of q starting at byte start and
// the start of the next one, len(q)+1 after the last part — so a trailing
// '&' yields a final empty part.
func nextPart(q string, start int) (part string, next int) {
	if i := strings.IndexByte(q[start:], '&'); i >= 0 {
		return q[start : start+i], start + i + 1
	}
	return q[start:], len(q) + 1
}

// seenName reports whether a part of prior carries the parameter name:
// the map-free dedupe. Queries hold a handful of names, so rescanning the
// parts before the current one costs less than a set.
func seenName(prior, name string) bool {
	for at := 0; at < len(prior); {
		var part string
		part, at = nextPart(prior, at)
		if part == "" {
			continue
		}
		if n, _, _ := strings.Cut(part, "="); n == name {
			return true
		}
	}
	return false
}

// Host returns the lower-cased host of raw without a port, or "" when the
// URL cannot be parsed or has no host.
func Host(raw string) string {
	if p, ok := split(raw); ok {
		return p.host
	}
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
	if p, ok := split(raw); ok {
		return p.path
	}
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return u.Path
}
