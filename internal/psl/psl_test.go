package psl

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPublicSuffixBasic(t *testing.T) {
	l := Default()
	cases := []struct {
		domain, want string
	}{
		{"example.com", "com"},
		{"www.example.com", "com"},
		{"example.co.uk", "co.uk"},
		{"a.b.example.co.uk", "co.uk"},
		{"com", "com"},
		{"co.uk", "co.uk"},
		{"foo.github.io", "github.io"},
		{"github.io", "github.io"},
		{"site-0001.example", "example"},
		{"cdn.site-0001.example", "example"},
	}
	for _, c := range cases {
		if got := l.PublicSuffix(c.domain); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.domain, got, c.want)
		}
	}
}

func TestPublicSuffixWildcardAndException(t *testing.T) {
	l := Default()
	// *.ck: any single label under ck is a public suffix.
	if got := l.PublicSuffix("foo.ck"); got != "foo.ck" {
		t.Errorf("PublicSuffix(foo.ck) = %q, want foo.ck", got)
	}
	if got := l.PublicSuffix("bar.foo.ck"); got != "foo.ck" {
		t.Errorf("PublicSuffix(bar.foo.ck) = %q, want foo.ck", got)
	}
	// !www.ck: exception — suffix is "ck".
	if got := l.PublicSuffix("www.ck"); got != "ck" {
		t.Errorf("PublicSuffix(www.ck) = %q, want ck", got)
	}
	if got := l.RegistrableDomain("www.ck"); got != "www.ck" {
		t.Errorf("RegistrableDomain(www.ck) = %q, want www.ck", got)
	}
	if got := l.RegistrableDomain("a.b.foo.ck"); got != "b.foo.ck" {
		t.Errorf("RegistrableDomain(a.b.foo.ck) = %q, want b.foo.ck", got)
	}
}

func TestImplicitStarRule(t *testing.T) {
	l := Default()
	// "zz" is not on the list; the implicit * rule makes the TLD a suffix.
	if got := l.PublicSuffix("example.zz"); got != "zz" {
		t.Errorf("PublicSuffix(example.zz) = %q, want zz", got)
	}
	if got := l.RegistrableDomain("www.example.zz"); got != "example.zz" {
		t.Errorf("RegistrableDomain(www.example.zz) = %q, want example.zz", got)
	}
}

func TestRegistrableDomain(t *testing.T) {
	l := Default()
	cases := []struct {
		domain, want string
	}{
		{"example.com", "example.com"},
		{"www.example.com", "example.com"},
		{"a.b.c.example.co.uk", "example.co.uk"},
		{"com", ""},
		{"co.uk", ""},
		{"", ""},
		{"foo.github.io", "foo.github.io"},
		{"a.foo.github.io", "foo.github.io"},
		{"github.io", ""},
		{"WWW.EXAMPLE.COM", "example.com"},
		{"www.example.com.", "example.com"},
	}
	for _, c := range cases {
		if got := l.RegistrableDomain(c.domain); got != c.want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", c.domain, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		".com",
		"com.",
		"a..b",
		"!*.bad",
		"*",
		"fo*o.com",
		"com.*",
	}
	for _, rule := range bad {
		if _, err := Parse(rule); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", rule)
		}
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	l, err := Parse("// header\n\ncom // trailing note\n\t org.uk\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if got := l.PublicSuffix("x.org.uk"); got != "org.uk" {
		t.Errorf("PublicSuffix(x.org.uk) = %q, want org.uk", got)
	}
}

func TestLongestRuleWins(t *testing.T) {
	l := MustParse("com\nfoo.com\nbar.foo.com")
	if got := l.PublicSuffix("x.bar.foo.com"); got != "bar.foo.com" {
		t.Errorf("longest rule: got %q, want bar.foo.com", got)
	}
	if got := l.RegistrableDomain("x.y.bar.foo.com"); got != "y.bar.foo.com" {
		t.Errorf("RegistrableDomain: got %q, want y.bar.foo.com", got)
	}
}

// Property: RegistrableDomain is idempotent and is always a suffix of the
// input (when non-empty), and the registrable domain has exactly one more
// label than its public suffix.
func TestRegistrableDomainProperties(t *testing.T) {
	l := Default()
	labels := []string{"a", "bb", "ccc", "www", "cdn", "example", "com", "co", "uk", "ck", "io"}
	f := func(idx []uint8) bool {
		if len(idx) == 0 || len(idx) > 6 {
			return true
		}
		parts := make([]string, len(idx))
		for i, x := range idx {
			parts[i] = labels[int(x)%len(labels)]
		}
		domain := strings.Join(parts, ".")
		rd := l.RegistrableDomain(domain)
		if rd == "" {
			return true
		}
		if !strings.HasSuffix(domain, rd) {
			t.Logf("domain=%q rd=%q not a suffix", domain, rd)
			return false
		}
		if l.RegistrableDomain(rd) != rd {
			t.Logf("domain=%q rd=%q not idempotent", domain, rd)
			return false
		}
		ps := l.PublicSuffix(rd)
		if strings.Count(rd, ".") != strings.Count(ps, ".")+1 {
			t.Logf("domain=%q rd=%q ps=%q label counts wrong", domain, rd, ps)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// refPublicSuffix and refRegistrableDomain are the Split/Join matcher the
// substring walk replaced, kept as the reference it must match.
func refPublicSuffix(l *List, domain string) string {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	if domain == "" {
		return ""
	}
	labels := strings.Split(domain, ".")
	bestLen := 1 // implicit "*" rule: the TLD itself
	for i := len(labels) - 1; i >= 0; i-- {
		suffix := strings.Join(labels[i:], ".")
		switch l.rules[suffix] {
		case ruleException:
			return strings.Join(labels[i+1:], ".")
		case ruleNormal:
			if n := len(labels) - i; n > bestLen {
				bestLen = n
			}
		case ruleWildcard:
			if i > 0 {
				if n := len(labels) - i + 1; n > bestLen {
					bestLen = n
				}
			}
		}
	}
	return strings.Join(labels[len(labels)-bestLen:], ".")
}

func refRegistrableDomain(l *List, domain string) string {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	suffix := refPublicSuffix(l, domain)
	if suffix == "" || domain == suffix {
		return ""
	}
	rest := strings.TrimSuffix(domain, "."+suffix)
	if rest == domain {
		return ""
	}
	if i := strings.LastIndexByte(rest, '.'); i >= 0 {
		rest = rest[i+1:]
	}
	if rest == "" {
		return ""
	}
	return rest + "." + suffix
}

// refLists are the lists the matcher is pinned on: the embedded one and
// one with deeper rules, a wildcard under a normal rule, and exceptions of
// one and of three labels.
var refLists = []*List{
	Default(),
	MustParse("com\nfoo.com\n*.bar.foo.com\n!x.bar.foo.com\n!solo\nco.uk\n*.ck\n!www.ck"),
}

// checkReference fails unless both functions equal the reference on
// domain under every list.
func checkReference(t *testing.T, domain string) {
	t.Helper()
	for li, l := range refLists {
		if got, want := l.PublicSuffix(domain), refPublicSuffix(l, domain); got != want {
			t.Fatalf("list %d: PublicSuffix(%q) = %q, reference %q", li, domain, got, want)
		}
		if got, want := l.RegistrableDomain(domain), refRegistrableDomain(l, domain); got != want {
			t.Fatalf("list %d: RegistrableDomain(%q) = %q, reference %q", li, domain, got, want)
		}
	}
}

// TestMatchesReference compares the substring walk with the Split/Join
// reference on random domains built from rule labels, upper case, empty
// labels and trailing dots included.
func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	labels := []string{"", "a", "x", "www", "bar", "foo", "com", "co", "uk", "ck", "solo", "github", "io", "example", "COM", "Foo"}
	for i := 0; i < 20000; i++ {
		parts := make([]string, 1+rng.Intn(6))
		for j := range parts {
			parts[j] = labels[rng.Intn(len(labels))]
		}
		domain := strings.Join(parts, ".")
		if rng.Intn(8) == 0 {
			domain += "."
		}
		checkReference(t, domain)
	}
}

// FuzzMatchesReference pins PublicSuffix and RegistrableDomain to the
// Split/Join reference on arbitrary strings.
func FuzzMatchesReference(f *testing.F) {
	for _, s := range []string{
		"static.cdn.site-0042.example", "a.b.foo.ck", "www.ck", "x.bar.foo.com", "y.x.bar.foo.com",
		"solo", "a.solo", "..com", ".", "a..b.co.uk", "WWW.Example.COM.",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, domain string) {
		// The reference joins every suffix, quadratic in the label count,
		// which stalls the fuzzer on long inputs; a DNS name has at most
		// 253 bytes.
		if len(domain) <= 253 {
			checkReference(t, domain)
		}
	})
}

func TestLowerCaseDomainsDoNotAllocate(t *testing.T) {
	l := Default()
	if n := testing.AllocsPerRun(100, func() {
		_ = l.RegistrableDomain("static.cdn.site-0042.example")
		_ = l.PublicSuffix("a.b.example.co.uk")
	}); n != 0 {
		t.Errorf("%v allocations per lookup of a lower-case domain, want 0", n)
	}
}

var sinkDomain string

func BenchmarkRegistrableDomain(b *testing.B) {
	l := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDomain = l.RegistrableDomain("static.cdn.site-0042.example")
	}
}
