package tree

import (
	"encoding/json"
	"testing"

	"webmeasure/internal/measurement"
	"webmeasure/internal/urlutil"
)

// visitStrings collects every string the visit references — the universe
// a columnar site block's string table would hold.
func visitStrings(v *measurement.Visit) []string {
	out := []string{v.Site, v.PageURL, v.Profile, v.Status, v.Failure, v.FaultKind}
	for _, q := range v.Requests {
		out = append(out, q.URL, q.FrameURL, q.RedirectFrom, q.ContentType, q.TrueParentURL)
		for _, f := range q.CallStack {
			out = append(out, f.FuncName, f.URL)
		}
		out = append(out, q.SetCookies...)
	}
	return out
}

// TestBuildKeyedMatchesBuild is the equivalence guarantee behind the
// columnar fast path: building through a pre-interned KeyCache must
// produce a tree identical — node for node, parent for parent, flag for
// flag — to the string-keyed Build, across the ablation variants.
func TestBuildKeyedMatchesBuild(t *testing.T) {
	v := visitFixture()
	strs := visitStrings(v)
	cache := urlutil.BuildKeyCache(strs, len(strs))
	builders := map[string]*Builder{
		"default":           {Filter: testFilter(t)},
		"no-filter":         {},
		"raw-url-identity":  {Filter: testFilter(t), RawURLIdentity: true},
		"ignore-callstacks": {Filter: testFilter(t), IgnoreCallStacks: true},
	}
	for name, b := range builders {
		t.Run(name, func(t *testing.T) {
			plain, err := b.Build(v)
			if err != nil {
				t.Fatal(err)
			}
			keyed, err := b.BuildKeyed(v, cache)
			if err != nil {
				t.Fatal(err)
			}
			pj, err := json.Marshal(plain.Record())
			if err != nil {
				t.Fatal(err)
			}
			kj, err := json.Marshal(keyed.Record())
			if err != nil {
				t.Fatal(err)
			}
			if string(pj) != string(kj) {
				t.Errorf("keyed build differs from plain build:\nplain: %s\nkeyed: %s", pj, kj)
			}
		})
	}
}

// TestBuildKeyedPartialCache exercises the fallback: URLs outside the
// cache's universe (possible only with a hand-built cache, never with a
// block-derived one) must fall back to direct normalization.
func TestBuildKeyedPartialCache(t *testing.T) {
	v := visitFixture()
	cache := urlutil.BuildKeyCache([]string{v.PageURL}, 1) // deliberately incomplete
	b := &Builder{Filter: testFilter(t)}
	plain, err := b.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := b.BuildKeyed(v, cache)
	if err != nil {
		t.Fatal(err)
	}
	pj, _ := json.Marshal(plain.Record())
	kj, _ := json.Marshal(keyed.Record())
	if string(pj) != string(kj) {
		t.Errorf("partial-cache build differs:\nplain: %s\nkeyed: %s", pj, kj)
	}
}
