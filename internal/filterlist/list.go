package filterlist

import (
	"bufio"
	"strings"
)

// List is a compiled filter list with a token index for fast matching.
type List struct {
	// indexed maps a distinctive token to the block rules containing it.
	indexed map[string][]*Rule
	// untokenized holds block rules without a usable token.
	untokenized []*Rule
	exceptions  []*Rule
	ruleCount   int
}

// Parse compiles a filter list. Unparseable rules are skipped and counted,
// mirroring how browsers load crowd-sourced lists: one bad line must not
// disable blocking.
func Parse(text string) (*List, int) {
	l := &List{indexed: make(map[string][]*Rule)}
	skipped := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		rule, err := ParseRule(sc.Text())
		if err != nil {
			skipped++
			continue
		}
		if rule == nil {
			continue
		}
		l.add(rule)
	}
	return l, skipped
}

func (l *List) add(r *Rule) {
	l.ruleCount++
	if r.Exception {
		l.exceptions = append(l.exceptions, r)
		return
	}
	if tok := ruleToken(r); tok != "" {
		l.indexed[tok] = append(l.indexed[tok], r)
	} else {
		l.untokenized = append(l.untokenized, r)
	}
}

// Len returns the number of compiled rules (block + exception).
func (l *List) Len() int { return l.ruleCount }

// Merge combines several lists into one matcher — the §6 scenario of
// stacking EasyList with further lists (e.g. EasyPrivacy) for broader
// coverage. Rules keep their origin semantics; an exception in any list
// suppresses matches from all of them, which is how content blockers
// treat stacked subscriptions.
func Merge(lists ...*List) *List {
	out := &List{indexed: make(map[string][]*Rule)}
	for _, l := range lists {
		if l == nil {
			continue
		}
		for tok, rules := range l.indexed {
			out.indexed[tok] = append(out.indexed[tok], rules...)
		}
		out.untokenized = append(out.untokenized, l.untokenized...)
		out.exceptions = append(out.exceptions, l.exceptions...)
		out.ruleCount += l.ruleCount
	}
	return out
}

// Matches reports whether the request is blocked by the list: some block
// rule matches and no exception rule does. In the paper's usage a match
// means "tracking request".
func (l *List) Matches(req Request) bool {
	c := newMatchContext(req)
	if !l.anyBlockMatch(c) {
		return false
	}
	for _, r := range l.exceptions {
		if r.match(c) {
			return false
		}
	}
	return true
}

// anyBlockMatch tries the block rules indexed under each token of the URL,
// walking the URL's alphanumeric runs in place, then the untokenized rules.
// Each rule is indexed under exactly one token, so only a token the URL
// repeats tries a rule twice, and it gets the same answer.
func (l *List) anyBlockMatch(c *matchContext) bool {
	url, start := c.url, -1
	for i := 0; i <= len(url); i++ {
		if i < len(url) && isTokenByte(url[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 && i-start >= minTokenLen {
			for _, r := range l.indexed[url[start:i]] {
				if r.match(c) {
					return true
				}
			}
		}
		start = -1
	}
	for _, r := range l.untokenized {
		if r.match(c) {
			return true
		}
	}
	return false
}

// minTokenLen is the shortest token worth indexing. Shorter runs are too
// common to discriminate.
const minTokenLen = 3

// ruleToken picks the longest literal alphanumeric run in the pattern that
// is guaranteed to appear as a *maximal* run in any matching URL, so the
// token index never causes a missed match. A run qualifies only when both
// of its sides are delimited: by a non-token byte inside the pattern, or by
// an anchor at the pattern's edge (the URL position there is a boundary).
// Runs touching a wildcard or an unanchored pattern edge may be substrings
// of a longer URL run and must not be indexed.
func ruleToken(r *Rule) string {
	best := ""
	for si, seg := range r.segments {
		start := -1
		for i := 0; i <= len(seg); i++ {
			alnum := i < len(seg) && isTokenByte(seg[i])
			if alnum && start < 0 {
				start = i
			}
			if !alnum && start >= 0 {
				leftOK := start > 0 ||
					(si == 0 && (r.anchorDomain || r.anchorStart) && !strings.HasPrefix(r.pattern, "*"))
				rightOK := i < len(seg) ||
					(si == len(r.segments)-1 && r.anchorEnd && !strings.HasSuffix(r.pattern, "*"))
				if run := seg[start:i]; leftOK && rightOK && len(run) > len(best) {
					best = run
				}
				start = -1
			}
		}
	}
	if len(best) < minTokenLen {
		return ""
	}
	return best
}

func isTokenByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
}
