package urlutil

import (
	"net/url"
	"strings"

	"webmeasure/internal/psl"
)

// KeyCache is a pre-computed normalization table: raw URL → (normalized
// node key, dense key id, stripped flag). The columnar store builds one
// per site block from the block's interned string table, so Normalize —
// a full URL parse — runs once per distinct string per site instead of
// once per request per visit, and consumers that index by the int32 key
// id (the tree builder) skip string hashing entirely. A cache is
// immutable after construction and safe for concurrent readers.
type KeyCache struct {
	refs map[string]keyRef
	keys []string
	// sites holds the eTLD+1 per key id ("" when the key has no
	// registrable host). Normalize preserves the host, so Site(key) ==
	// Site(raw) for every raw mapping to the key; consumers classifying
	// first- vs third-party read the table instead of re-parsing URLs.
	sites []string
}

type keyRef struct {
	id       int32
	stripped bool
}

// BuildKeyCache normalizes every raw string once and assigns dense ids to
// the distinct normalized keys in first-seen order. Non-URL strings in
// the input (profile names, header values) simply normalize to themselves
// and cost one table entry; callers pass whatever string universe their
// visits reference. Each new key's eTLD+1 comes from the host of the
// normalizing parse, resolved once per distinct host.
func BuildKeyCache(raws []string) *KeyCache {
	c := &KeyCache{refs: make(map[string]keyRef, len(raws))}
	ids := make(map[string]int32, len(raws))
	hostSites := make(map[string]string)
	for _, raw := range raws {
		if _, ok := c.refs[raw]; ok {
			continue
		}
		key, stripped, u := normalize(raw)
		id, ok := ids[key]
		if !ok {
			id = int32(len(c.keys))
			ids[key] = id
			c.keys = append(c.keys, key)
			c.sites = append(c.sites, hostSite(u, hostSites))
		}
		c.refs[raw] = keyRef{id: id, stripped: stripped}
	}
	return c
}

// hostSite is Site over an already parsed URL (nil when unparseable),
// memoized per host in memo.
func hostSite(u *url.URL, memo map[string]string) string {
	if u == nil {
		return ""
	}
	h := strings.ToLower(u.Hostname())
	if h == "" {
		return ""
	}
	site, ok := memo[h]
	if !ok {
		site = psl.Default().RegistrableDomain(h)
		memo[h] = site
	}
	return site
}

// Lookup resolves a raw URL to its cached normalization. ok is false when
// the URL was not in the cache's universe; callers then fall back to
// Normalize directly.
func (c *KeyCache) Lookup(raw string) (key string, id int32, stripped, ok bool) {
	if c == nil {
		return "", 0, false, false
	}
	ref, ok := c.refs[raw]
	if !ok {
		return "", 0, false, false
	}
	return c.keys[ref.id], ref.id, ref.stripped, true
}

// SiteByID returns the eTLD+1 of the key with the given id ("" when the
// key has no registrable host). The id must come from Lookup on this
// cache.
func (c *KeyCache) SiteByID(id int32) string {
	return c.sites[id]
}

// NumKeys returns the number of distinct normalized keys — the exclusive
// upper bound of the ids Lookup returns.
func (c *KeyCache) NumKeys() int {
	if c == nil {
		return 0
	}
	return len(c.keys)
}
