// Package filterlist implements an Adblock-Plus-syntax filter list engine —
// the role EasyList plays in the paper (§3.2 "Identifying Tracking
// Requests"): a request is a tracking request iff its URL matches the list.
//
// The engine supports the rule features EasyList relies on:
//
//   - plain substring patterns with "*" wildcards,
//   - the "^" separator placeholder,
//   - "||" domain-boundary anchors, "|" start/end anchors,
//   - "@@" exception rules,
//   - the $third-party / $~third-party option,
//   - $domain= restrictions (with ~ negation),
//   - resource-type options ($script, $image, $subdocument, ...),
//
// and uses a token index so matching stays fast on large lists: every
// block rule is filed under one alphanumeric run of its pattern that any
// URL it matches must contain as a whole run, and a request tries only
// the rules filed under its URL's runs. Of a rule's runs, Parse picks the
// one the fewest block rules of the whole list hold (the longest on a
// tie), so a word a family of rules shares, such as a common domain
// label, selects the family only where its rules hold no rarer run.
package filterlist

import (
	"fmt"
	"strings"
)

// RequestType classifies the resource a request loads, mirroring the ABP
// type options.
type RequestType uint16

// Request types understood by the matcher. TypeAny matches every type.
const (
	TypeScript RequestType = 1 << iota
	TypeImage
	TypeStylesheet
	TypeSubdocument
	TypeXMLHTTPRequest
	TypeWebSocket
	TypeFont
	TypeMedia
	TypePing // ABP's name for beacons
	TypeDocument
	TypeCSPReport
	TypeOther

	TypeAny RequestType = 0xffff
)

var typeNames = map[string]RequestType{
	"script":         TypeScript,
	"image":          TypeImage,
	"stylesheet":     TypeStylesheet,
	"subdocument":    TypeSubdocument,
	"xmlhttprequest": TypeXMLHTTPRequest,
	"websocket":      TypeWebSocket,
	"font":           TypeFont,
	"media":          TypeMedia,
	"ping":           TypePing,
	"beacon":         TypePing, // alias
	"document":       TypeDocument,
	"csp-report":     TypeCSPReport,
	"other":          TypeOther,
}

// Rule is one parsed filter rule.
type Rule struct {
	// Raw is the original rule text.
	Raw string
	// Exception is true for "@@" rules.
	Exception bool

	pattern      string   // lower-cased pattern with anchors stripped
	segments     []string // pattern split on '*'; empty segments removed
	anchorDomain bool     // "||" prefix
	anchorStart  bool     // "|" prefix
	anchorEnd    bool     // "|" suffix

	// Option state. thirdParty: 0 = unconstrained, 1 = third-party only,
	// 2 = first-party only.
	thirdParty     uint8
	includeDomains []string
	excludeDomains []string
	types          RequestType
}

// ParseRule parses one rule line. Comments ("!") and cosmetic rules
// ("##"/"#@#") return (nil, nil): they are ignored, not errors, matching how
// consumers skip them when loading EasyList.
func ParseRule(line string) (*Rule, error) {
	raw := line
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
		return nil, nil
	}
	if strings.Contains(line, "##") || strings.Contains(line, "#@#") || strings.Contains(line, "#?#") {
		return nil, nil // element-hiding rules have no network effect
	}
	r := &Rule{Raw: raw, types: TypeAny}
	if strings.HasPrefix(line, "@@") {
		r.Exception = true
		line = line[2:]
	}
	// Split off options at the last '$' that is followed by a plausible
	// option list (EasyList convention).
	if i := strings.LastIndexByte(line, '$'); i >= 0 && i < len(line)-1 && looksLikeOptions(line[i+1:]) {
		if err := r.parseOptions(line[i+1:]); err != nil {
			return nil, err
		}
		line = line[:i]
	}
	if strings.HasPrefix(line, "||") {
		r.anchorDomain = true
		line = line[2:]
	} else if strings.HasPrefix(line, "|") {
		r.anchorStart = true
		line = line[1:]
	}
	if strings.HasSuffix(line, "|") {
		r.anchorEnd = true
		line = line[:len(line)-1]
	}
	if line == "" || strings.Trim(line, "*") == "" {
		return nil, fmt.Errorf("filterlist: rule %q has an empty pattern", raw)
	}
	r.pattern = strings.ToLower(line)
	for _, seg := range strings.Split(r.pattern, "*") {
		if seg != "" {
			r.segments = append(r.segments, seg)
		}
	}
	// A pattern beginning with '*' cancels the start anchors.
	if strings.HasPrefix(r.pattern, "*") {
		r.anchorStart, r.anchorDomain = false, false
	}
	if strings.HasSuffix(r.pattern, "*") {
		r.anchorEnd = false
	}
	return r, nil
}

func looksLikeOptions(s string) bool {
	for _, opt := range strings.Split(s, ",") {
		opt = strings.TrimPrefix(strings.TrimSpace(opt), "~")
		name, _, _ := strings.Cut(opt, "=")
		switch name {
		case "third-party", "domain", "match-case":
		default:
			if _, ok := typeNames[name]; !ok {
				return false
			}
		}
	}
	return true
}

func (r *Rule) parseOptions(s string) error {
	var include RequestType
	var exclude RequestType
	for _, opt := range strings.Split(s, ",") {
		opt = strings.TrimSpace(opt)
		negated := strings.HasPrefix(opt, "~")
		if negated {
			opt = opt[1:]
		}
		name, val, hasVal := strings.Cut(opt, "=")
		switch name {
		case "third-party":
			if negated {
				r.thirdParty = 2
			} else {
				r.thirdParty = 1
			}
		case "domain":
			if !hasVal || val == "" {
				return fmt.Errorf("filterlist: empty domain option in %q", r.Raw)
			}
			for _, d := range strings.Split(val, "|") {
				d = strings.ToLower(strings.TrimSpace(d))
				if strings.HasPrefix(d, "~") {
					r.excludeDomains = append(r.excludeDomains, d[1:])
				} else {
					r.includeDomains = append(r.includeDomains, d)
				}
			}
		case "match-case":
			// Accepted and ignored: the engine matches case-insensitively,
			// which is what EasyList consumers overwhelmingly do.
		default:
			t, ok := typeNames[name]
			if !ok {
				return fmt.Errorf("filterlist: unknown option %q in %q", name, r.Raw)
			}
			if negated {
				exclude |= t
			} else {
				include |= t
			}
		}
	}
	switch {
	case include != 0:
		r.types = include
	case exclude != 0:
		r.types = TypeAny &^ exclude
	}
	return nil
}
