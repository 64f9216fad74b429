package urlutil

import "webmeasure/internal/psl"

// KeyCache is a pre-computed normalization table: raw URL → (normalized
// node key, dense key id, stripped flag). The columnar store fills one per
// site block from the URL entries of the block's interned string table,
// and the analysis one per page from its visits' URLs otherwise, so
// Normalize — a byte split of a canonical URL, a full parse of any other —
// runs once per distinct URL per site or page instead of once per request
// per visit, and consumers that index by the int32 key id (the tree
// builder) skip string hashing entirely. Readers never change a cache, so
// any number may share one; Reset and Add refill it, and must not run
// while anyone reads it. A columnar load refills one cache block after
// block, after the analysis of the previous block has returned.
type KeyCache struct {
	refs map[string]keyRef
	keys []string
	// sites holds the eTLD+1 per key id ("" when the key has no
	// registrable host). Normalize preserves the host, so Site(key) ==
	// Site(raw) for every raw mapping to the key; consumers classifying
	// first- vs third-party read the table instead of re-parsing URLs.
	sites []string
	// ids and hostSites are fill state: each distinct key's id, and each
	// host's eTLD+1 resolved once. Reset empties them with the tables, so
	// a refilled cache reuses their storage too.
	ids       map[string]int32
	hostSites map[string]string
}

type keyRef struct {
	id       int32
	stripped bool
}

// BuildKeyCache normalizes every raw string once and assigns dense ids to
// the distinct normalized keys in first-seen order. Callers pass the URL
// strings their visits reference, repeats included; a non-URL string
// would cost a parse and a table entry that no lookup reads. distinct is
// the caller's estimate of how many distinct strings raws holds; it only
// sizes the tables.
func BuildKeyCache(raws []string, distinct int) *KeyCache {
	c := new(KeyCache)
	c.Reset(distinct)
	for _, raw := range raws {
		c.Add(raw)
	}
	return c
}

// Reset empties the cache for a new set of about distinct URLs, keeping
// the storage its tables grew to; a zero KeyCache must be Reset before
// its first Add.
func (c *KeyCache) Reset(distinct int) {
	if c.refs == nil {
		c.refs = make(map[string]keyRef, distinct)
		c.ids = make(map[string]int32, distinct)
		c.hostSites = make(map[string]string)
	}
	clear(c.refs)
	clear(c.ids)
	clear(c.hostSites)
	clear(c.keys)
	clear(c.sites)
	c.keys, c.sites = c.keys[:0], c.sites[:0]
}

// Add normalizes raw into the cache unless it holds raw already; a new
// normalized key takes the next dense id, and its eTLD+1 comes from the
// host the normalization cut out.
func (c *KeyCache) Add(raw string) {
	if _, ok := c.refs[raw]; ok {
		return
	}
	key, stripped, host := normalize(raw)
	id, ok := c.ids[key]
	if !ok {
		id = int32(len(c.keys))
		c.ids[key] = id
		c.keys = append(c.keys, key)
		c.sites = append(c.sites, hostSite(host, c.hostSites))
	}
	c.refs[raw] = keyRef{id: id, stripped: stripped}
}

// hostSite is Site over a lower-cased host ("" when the URL has none),
// memoized per host in memo.
func hostSite(host string, memo map[string]string) string {
	if host == "" {
		return ""
	}
	site, ok := memo[host]
	if !ok {
		site = psl.Default().RegistrableDomain(host)
		memo[host] = site
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
