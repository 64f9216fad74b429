package filterlist

import (
	"strings"

	"webmeasure/internal/urlutil"
)

// Request carries the context the matcher needs: the request URL, the URL of
// the page issuing it (for $third-party and $domain), and the resource type.
type Request struct {
	URL     string
	PageURL string
	Type    RequestType
}

// matchContext is one request as the rules see it. List.Matches builds one
// per request and shares it with every rule it tries: the URL is
// lower-cased once, and the page host and the third-party bit are worked
// out the first time a rule's options ask for them.
type matchContext struct {
	req Request
	url string // req.URL, lower-cased

	pageHost            string
	thirdParty          bool
	haveHost, haveParty bool
}

func newMatchContext(req Request) *matchContext {
	return &matchContext{req: req, url: strings.ToLower(req.URL)}
}

// host returns the issuing page's host.
func (c *matchContext) host() string {
	if !c.haveHost {
		c.pageHost, c.haveHost = urlutil.Host(c.req.PageURL), true
	}
	return c.pageHost
}

// isThirdParty reports whether the request leaves the issuing page's site.
func (c *matchContext) isThirdParty() bool {
	if !c.haveParty {
		c.thirdParty, c.haveParty = urlutil.IsThirdParty(c.req.URL, c.req.PageURL), true
	}
	return c.thirdParty
}

// MatchRequest reports whether the rule matches the request, considering the
// pattern and all options.
func (r *Rule) MatchRequest(req Request) bool { return r.match(newMatchContext(req)) }

// match evaluates the rule against one request. The checks are a pure
// conjunction, so their order changes no answer; the pattern goes before
// the options that parse URLs, which most candidate rules then never reach.
func (r *Rule) match(c *matchContext) bool {
	if r.types&c.req.Type == 0 && c.req.Type != 0 {
		return false
	}
	if !r.matchURL(c.url) {
		return false
	}
	if r.thirdParty != 0 && c.isThirdParty() != (r.thirdParty == 1) {
		return false
	}
	if len(r.includeDomains) > 0 && !domainInList(c.host(), r.includeDomains) {
		return false
	}
	return len(r.excludeDomains) == 0 || !domainInList(c.host(), r.excludeDomains)
}

// domainInList reports whether host equals or is a subdomain of any entry.
func domainInList(host string, list []string) bool {
	for _, d := range list {
		if host == d || strings.HasSuffix(host, "."+d) {
			return true
		}
	}
	return false
}

// matchURL matches the rule pattern against a lower-cased URL.
func (r *Rule) matchURL(url string) bool {
	switch {
	case r.anchorStart:
		return r.matchAt(url, 0)
	case r.anchorDomain:
		// A "||" rule may start at the beginning of the host or just past
		// any dot inside it.
		host := 0
		if i := strings.Index(url, "://"); i >= 0 {
			host = i + 3
		}
		for p := host; ; p++ {
			if (p == host || url[p-1] == '.') && r.matchAt(url, p) {
				return true
			}
			if p == len(url) {
				return false
			}
			switch url[p] {
			case '/', '?', ':', '#': // the host ends
				return false
			}
		}
	default:
		for start := 0; start <= len(url); start++ {
			if r.matchAt(url, start) {
				return true
			}
			// Only the first segment's first byte constrains the start; skip
			// ahead cheaply when it is a literal.
			if len(r.segments) > 0 && r.segments[0][0] != '^' {
				if start+1 > len(url) {
					return false
				}
				if next := strings.IndexByte(url[start+1:], r.segments[0][0]); next >= 0 {
					start += next // loop increment adds 1
				} else {
					return false
				}
			}
		}
		return false
	}
}

// matchAt reports whether the pattern matches from exactly pos, honouring
// the end anchor.
func (r *Rule) matchAt(url string, pos int) bool {
	end, ok := r.matchSegmentsAt(url, pos)
	return ok && (!r.anchorEnd || end == len(url))
}

// matchSegmentsAt matches all pattern segments beginning exactly at pos for
// the first segment, with later segments found anywhere after (wildcard
// semantics). It returns the position after the final segment.
func (r *Rule) matchSegmentsAt(url string, pos int) (int, bool) {
	if len(r.segments) == 0 {
		return pos, true
	}
	end, ok := matchSegmentAt(url, pos, r.segments[0])
	if !ok {
		return 0, false
	}
	pos = end
	for _, seg := range r.segments[1:] {
		found := false
		for p := pos; p <= len(url); p++ {
			if e, ok := matchSegmentAt(url, p, seg); ok {
				pos = e
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return pos, true
}

// matchSegmentAt matches one wildcard-free segment at an exact position.
// '^' matches a separator character or the end of the URL (only as the
// final character of the segment).
func matchSegmentAt(url string, pos int, seg string) (int, bool) {
	for i := 0; i < len(seg); i++ {
		if seg[i] == '^' {
			if pos == len(url) {
				if i == len(seg)-1 {
					return pos, true
				}
				return 0, false
			}
			if !isSeparator(url[pos]) {
				return 0, false
			}
			pos++
			continue
		}
		if pos >= len(url) || url[pos] != seg[i] {
			return 0, false
		}
		pos++
	}
	return pos, true
}

// isSeparator implements ABP's separator class: anything that is not a
// letter, digit, or one of "_-.%".
func isSeparator(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return false
	case c == '_' || c == '-' || c == '.' || c == '%':
		return false
	}
	return true
}
