// Package psl implements the Public Suffix List algorithm used to determine
// the registrable part of a domain name (the "eTLD+1", called a *site* in the
// paper). The matcher supports the full PSL rule semantics: plain rules,
// wildcard labels ("*.ck"), and exception rules ("!www.ck").
//
// The package ships with a compact embedded list (see data.go) covering the
// suffixes that appear in the synthetic web universe plus a representative
// set of real-world suffixes, and can parse any list in the standard
// publicsuffix.org format.
package psl

import (
	"bufio"
	"fmt"
	"strings"
)

// List is a parsed public suffix list. The zero value matches nothing; use
// Parse or Default to obtain a usable list.
type List struct {
	// rules maps a rule's label sequence (joined with ".") to its kind.
	rules map[string]ruleKind
	// maxLabels bounds the lookup walk.
	maxLabels int
}

type ruleKind uint8

const (
	ruleNormal ruleKind = iota + 1
	ruleWildcard
	ruleException
)

// Parse reads a public suffix list in the standard format: one rule per
// line, "//" comments, blank lines ignored. Rules are lower-cased. An empty
// input yields a list with only the implicit "*" rule (every TLD is a public
// suffix), matching publicsuffix.org semantics.
func Parse(text string) (*List, error) {
	l := &List{rules: make(map[string]ruleKind)}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		// The canonical list terminates rules at whitespace.
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			line = line[:i]
		}
		if err := l.addRule(strings.ToLower(line)); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// MustParse is Parse, panicking on error. It is intended for embedded data.
func MustParse(text string) *List {
	l, err := Parse(text)
	if err != nil {
		panic("psl: invalid embedded list: " + err.Error())
	}
	return l
}

func (l *List) addRule(rule string) error {
	kind := ruleNormal
	if strings.HasPrefix(rule, "!") {
		kind = ruleException
		rule = rule[1:]
	}
	if rule == "" || strings.HasPrefix(rule, ".") || strings.HasSuffix(rule, ".") {
		return fmt.Errorf("psl: malformed rule %q", rule)
	}
	labels := strings.Split(rule, ".")
	for i, lab := range labels {
		if lab == "" {
			return fmt.Errorf("psl: empty label in rule %q", rule)
		}
		// A "*" is only meaningful as the leftmost label; the PSL never
		// uses interior wildcards and we reject them for clarity.
		if strings.Contains(lab, "*") && (lab != "*" || i != 0) {
			return fmt.Errorf("psl: unsupported wildcard in rule %q", rule)
		}
	}
	if labels[0] == "*" {
		if kind == ruleException {
			return fmt.Errorf("psl: exception rule cannot be a wildcard: %q", rule)
		}
		kind = ruleWildcard
		rule = strings.Join(labels[1:], ".")
		if rule == "" {
			return fmt.Errorf("psl: bare wildcard rule")
		}
	}
	if n := len(labels); n > l.maxLabels {
		l.maxLabels = n
	}
	l.rules[rule] = kind
	return nil
}

// Len reports the number of rules in the list.
func (l *List) Len() int { return len(l.rules) }

// PublicSuffix returns the public suffix of domain according to the list and
// the implicit "*" rule. The domain must be a bare host name (no scheme,
// port, or trailing dot); it is lower-cased before matching. For a domain
// that is itself a public suffix, the domain is returned unchanged. The
// result is a substring of the lower-cased domain, so a lower-case domain
// costs no allocation.
func (l *List) PublicSuffix(domain string) string {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	if domain == "" {
		return ""
	}
	// Walk suffixes from the TLD leftward, one label boundary at a time,
	// recording where the prevailing match starts. Exception rules beat
	// everything; otherwise the longest match wins (which the leftward
	// walk gives us naturally). No rule spans more than maxLabels labels.
	best := labelStart(domain, len(domain)) // implicit "*" rule: the TLD
	end := len(domain)                      // end of the current label
	for labels := 1; labels <= l.maxLabels; labels++ {
		start := labelStart(domain, end)
		switch l.rules[domain[start:]] {
		case ruleException:
			// The exception's suffix is the rule with its leftmost
			// label removed.
			if end == len(domain) {
				return ""
			}
			return domain[end+1:]
		case ruleNormal:
			best = min(best, start)
		case ruleWildcard:
			// "*.<suffix>" extends the match one label to the left,
			// if such a label exists.
			if start > 0 {
				best = min(best, labelStart(domain, start-1))
			}
		}
		if start == 0 {
			break
		}
		end = start - 1
	}
	return domain[best:]
}

// labelStart returns the start of the label of domain that ends at byte
// end: one past the last '.' before end, or 0.
func labelStart(domain string, end int) int {
	return strings.LastIndexByte(domain[:end], '.') + 1
}

// RegistrableDomain returns the eTLD+1 of domain: the public suffix plus one
// more label. It returns "" when domain is itself a public suffix (or empty),
// mirroring golang.org/x/net/publicsuffix.EffectiveTLDPlusOne's error case.
// Like PublicSuffix it returns a substring of the lower-cased domain.
func (l *List) RegistrableDomain(domain string) string {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	suffix := l.PublicSuffix(domain)
	if suffix == "" || domain == suffix {
		return ""
	}
	// PublicSuffix returned a label-aligned suffix of domain, so a '.'
	// precedes it; the registrable domain adds the label before that.
	at := len(domain) - len(suffix)
	if domain[at-1] != '.' {
		return "" // suffix was not a proper suffix; defensive
	}
	start := labelStart(domain, at-1)
	if start == at-1 {
		return "" // empty label before the suffix
	}
	return domain[start:]
}
