package filterlist

import (
	"slices"
	"strings"
)

// List is a compiled filter list with a token index for fast matching.
type List struct {
	// indexed maps a distinctive token to the block rules filed under it.
	indexed map[string][]*Rule
	// untokenized holds block rules without a usable token.
	untokenized []*Rule
	exceptions  []*Rule
	ruleCount   int
}

// Parse compiles a filter list. Unparseable rules are skipped and counted,
// mirroring how browsers load crowd-sourced lists: one bad line must not
// disable blocking. Lines may be of any length.
//
// Every block rule is filed under its rarest index-safe token: the one the
// fewest block rules of the whole list hold, the longest on a tie, then
// the first in the pattern (see ruleTokens).
func Parse(text string) (*List, int) {
	l := &List{indexed: make(map[string][]*Rule)}
	skipped := 0
	var block []*Rule
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		rule, err := ParseRule(line)
		if err != nil {
			skipped++
			continue
		}
		if rule == nil {
			continue
		}
		l.ruleCount++
		if rule.Exception {
			l.exceptions = append(l.exceptions, rule)
		} else {
			block = append(block, rule)
		}
	}

	holders := make(map[string]int)
	var toks []string
	for _, r := range block {
		toks = ruleTokens(toks[:0], r)
		for i, tok := range toks {
			if !slices.Contains(toks[:i], tok) {
				holders[tok]++
			}
		}
	}
	for _, r := range block {
		toks = ruleTokens(toks[:0], r)
		if len(toks) == 0 {
			l.untokenized = append(l.untokenized, r)
			continue
		}
		best := toks[0]
		for _, tok := range toks[1:] {
			if n, m := holders[tok], holders[best]; n < m || n == m && len(tok) > len(best) {
				best = tok
			}
		}
		l.indexed[best] = append(l.indexed[best], r)
	}
	return l, skipped
}

// Len returns the number of compiled rules (block + exception).
func (l *List) Len() int { return l.ruleCount }

// Merge combines several lists into one matcher — the §6 scenario of
// stacking EasyList with further lists (e.g. EasyPrivacy) for broader
// coverage. Rules keep their origin semantics; an exception in any list
// suppresses matches from all of them, which is how content blockers
// treat stacked subscriptions. Each rule stays under the token its own
// list chose, which any index-safe token may be.
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

// ruleTokens appends to dst, in pattern order, every literal alphanumeric
// run of at least minTokenLen bytes that is guaranteed to appear as a
// *maximal* run in any URL the rule matches, so indexing the rule under
// any one of them never causes a missed match. A run qualifies only when
// both of its sides are delimited: by a non-token byte inside the pattern,
// or by an anchor at the pattern's edge (the URL position there is a
// boundary). Runs touching a wildcard or an unanchored pattern edge may be
// substrings of a longer URL run and must not be indexed.
//
// Parse files a rule under the token the fewest block rules of the list
// hold, so a request tries only the rules that share its rarest runs. The
// longest token is often a word a whole family of rules repeats
// ("example" or "metrics" in "||name-metrics.example^"), and filed under
// it, the family is tried by every request that carries the word. The
// count is taken over the whole list before any rule is filed. Balancing
// bucket sizes as rules arrive instead spreads a family whose rules all
// hold the same words over every one of them, common ones included: 500
// rules "||tracker-X-net.example^" would land partly under "example",
// which nearly every request carries. Counted list-wide, the three words
// tie and all 500 go under "tracker".
func ruleTokens(dst []string, r *Rule) []string {
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
				if leftOK && rightOK && i-start >= minTokenLen {
					dst = append(dst, seg[start:i])
				}
				start = -1
			}
		}
	}
	return dst
}

func isTokenByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
}
