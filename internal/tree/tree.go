// Package tree builds the paper's dependency trees (§3.2): each node is a
// loaded resource identified by its query-value-stripped URL, each edge the
// HTTP communication that caused the load. Parent attribution uses, in
// order, HTTP redirect provenance, the last entry of the JavaScript/CSS
// call stack, and the (nested) iframe structure; resources with no
// assignable branch attach to the root — the visited page itself.
package tree

import (
	"fmt"
	"sort"
	"sync"

	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/urlutil"
)

// Party is the loading context of a node relative to the visited site.
type Party uint8

// Party values.
const (
	FirstParty Party = iota
	ThirdParty
)

// String names the party.
func (p Party) String() string {
	if p == FirstParty {
		return "first-party"
	}
	return "third-party"
}

// Node is one resource in a dependency tree. Its dependency chain — the
// keys from the root down to the node, the unit of the paper's vertical
// analysis — is the walk up its Parent pointers; no chain is stored, since
// treediff.Compare classifies equal chains across trees from each node's
// parent key alone.
type Node struct {
	// Key is the node identity: the normalized URL (§3.2).
	Key string
	// RawURL is the first observed un-normalized URL.
	RawURL string
	Type   measurement.ResourceType
	Party  Party
	// Tracking is true when the URL matches the tracking filter list.
	Tracking bool

	// Response metadata of the first observed request (static facets the
	// takeaway-3 analysis compares against dynamic presence).
	Status      int
	ContentType string
	BodySize    int

	Parent   *Node // nil for the root
	Children []*Node
	Depth    int
}

// IsRoot reports whether the node is the visited page.
func (n *Node) IsRoot() bool { return n.Parent == nil }

// Tree is one page visit's dependency tree.
type Tree struct {
	Site    string
	PageURL string
	Profile string

	Root  *Node
	nodes map[string]*Node
	// nodeList is the (depth, key)-sorted node slice, memoized by
	// Builder.Build's finalize pass; Nodes() then returns it without the
	// per-call sort the analysis hot loop used to pay.
	nodeList []*Node
	// maxDepth is memoized alongside (root = 0).
	maxDepth int

	// StrippedURLs counts requests whose URL lost query values during
	// normalization (the paper's "40% of observed URLs" statistic).
	StrippedURLs int
	// TotalRequests is the number of requests consumed, including merged
	// duplicates.
	TotalRequests int
}

// Node returns the node with the given normalized-URL key, or nil.
func (t *Tree) Node(key string) *Node { return t.nodes[key] }

// NodeCount returns the number of nodes including the root.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// Nodes returns all nodes sorted by (depth, key) for deterministic
// iteration. Trees from Builder.Build return a memoized slice; callers
// must not modify it.
func (t *Tree) Nodes() []*Node {
	if t.nodeList != nil {
		return t.nodeList
	}
	return t.sortNodes()
}

func (t *Tree) sortNodes() []*Node {
	out := make([]*Node, 0, len(t.nodes))
	for _, n := range t.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Depth != out[b].Depth {
			return out[a].Depth < out[b].Depth
		}
		return out[a].Key < out[b].Key
	})
	return out
}

// Finalize memoizes the derived views — the sorted node list and the max
// depth — once the tree's shape is fixed. Builder.Build calls it before
// returning; mutating the tree afterwards invalidates the memos.
func (t *Tree) Finalize() {
	t.nodeList = t.sortNodes()
	t.maxDepth = 0
	for _, n := range t.nodeList {
		if n.Depth > t.maxDepth {
			t.maxDepth = n.Depth
		}
	}
}

// MaxDepth returns the deepest node's depth (root = 0).
func (t *Tree) MaxDepth() int {
	if t.nodeList != nil {
		return t.maxDepth
	}
	max := 0
	for _, n := range t.nodes {
		if n.Depth > max {
			max = n.Depth
		}
	}
	return max
}

// Breadth returns the maximum number of nodes at any single depth. Nodes
// lists the nodes by depth, so each level is one run of it.
func (t *Tree) Breadth() int {
	nodes := t.Nodes()
	best := 0
	for i := 0; i < len(nodes); {
		j := i + 1
		for j < len(nodes) && nodes[j].Depth == nodes[i].Depth {
			j++
		}
		best = max(best, j-i)
		i = j
	}
	return best
}

// ChildKeys returns a node's children keys as a set.
func (n *Node) ChildKeys() map[string]bool {
	out := make(map[string]bool, len(n.Children))
	for _, c := range n.Children {
		out[c.Key] = true
	}
	return out
}

// Builder constructs trees from visits. Filter may be nil (no tracking
// classification). A Builder holds no cache or other state that changes
// while it builds, so one value is safe to share across goroutines. The
// two ablation switches alter the paper's method for sensitivity analysis:
//
//   - RawURLIdentity keeps query values in node identities, so session IDs
//     make equal resources look different (§3.2 argues against this);
//   - IgnoreCallStacks drops the JavaScript/CSS attribution signal, leaving
//     only redirects and frames (everything else collapses to the root).
type Builder struct {
	Filter           *filterlist.List
	RawURLIdentity   bool
	IgnoreCallStacks bool
}

// key computes a node identity under the builder's identity mode.
func (b *Builder) key(rawURL string) (string, bool) {
	if b.RawURLIdentity {
		return rawURL, false
	}
	return urlutil.Normalize(rawURL)
}

// keyed is the per-Build lookup state. With a KeyCache (columnar inputs)
// node identities resolve to pre-interned int32 ids and node lookups are
// array indexes; without one (JSONL inputs, ablations) every lookup goes
// through Normalize and the string-keyed node map as before. Both paths
// produce identical trees.
type keyed struct {
	b    *Builder
	keys *urlutil.KeyCache
	byID []*Node // key id → node, nil where absent
	// pageSite is the visited page's eTLD+1, resolved once per build so
	// the cached per-key sites classify first- vs third-party without
	// re-parsing either URL. Valid only when haveSite.
	pageSite string
	haveSite bool
}

// key resolves a raw URL to (node key, key id, stripped); id is -1 when
// the URL is outside the cache's universe (or no cache is attached).
func (k *keyed) key(rawURL string) (string, int32, bool) {
	if k.keys != nil {
		if key, id, stripped, ok := k.keys.Lookup(rawURL); ok {
			return key, id, stripped
		}
	}
	key, stripped := k.b.key(rawURL)
	return key, -1, stripped
}

// node looks a key up, by id when pre-interned.
func (k *keyed) node(t *Tree, key string, id int32) *Node {
	if id >= 0 {
		return k.byID[id]
	}
	return t.nodes[key]
}

// byIDPool recycles BuildKeyed's key id → node table. A table is sized by
// the whole block's key count but a tree fills a few of its slots, so the
// builds of one block share a table instead of allocating one each;
// BuildKeyed clears it before putting it back, so a pooled table retains
// no tree.
var byIDPool = sync.Pool{New: func() any { return new([]*Node) }}

// insert publishes a node under its key (and id when pre-interned).
func (k *keyed) insert(t *Tree, n *Node, id int32) {
	if id >= 0 {
		k.byID[id] = n
	}
	t.nodes[n.Key] = n
}

// Build constructs the dependency tree of a successful visit. It returns
// an error for failed or empty visits.
func (b *Builder) Build(v *measurement.Visit) (*Tree, error) {
	return b.BuildKeyed(v, nil)
}

// BuildKeyed is Build consuming a pre-interned key cache (one per
// columnar site block): node identities arrive as int32 key ids, so the
// hot loop skips both the per-request URL normalization and the string
// hashing of the node map — the re-interning the int32 comparison kernel
// otherwise pays again. keys may be nil; the RawURLIdentity ablation
// ignores it (raw identities are not what the cache holds).
func (b *Builder) BuildKeyed(v *measurement.Visit, keys *urlutil.KeyCache) (*Tree, error) {
	if !v.Success {
		return nil, fmt.Errorf("tree: visit of %s by %s failed: %s", v.PageURL, v.Profile, v.Failure)
	}
	if len(v.Requests) == 0 {
		return nil, fmt.Errorf("tree: visit of %s by %s has no requests", v.PageURL, v.Profile)
	}

	t := &Tree{
		Site:    v.Site,
		PageURL: v.PageURL,
		Profile: v.Profile,
		nodes:   make(map[string]*Node, len(v.Requests)),
	}
	k := &keyed{b: b}
	if keys != nil && !b.RawURLIdentity {
		k.keys = keys
		table := byIDPool.Get().(*[]*Node)
		if n := keys.NumKeys(); cap(*table) < n {
			*table = make([]*Node, n)
		} else {
			*table = (*table)[:n]
		}
		k.byID = *table
		defer func() {
			clear(k.byID)
			byIDPool.Put(table)
		}()
	}
	rootKey, rootID, stripped := k.key(v.PageURL)
	if stripped {
		t.StrippedURLs++
	}
	if k.keys != nil {
		if rootID >= 0 {
			k.pageSite = k.keys.SiteByID(rootID)
		} else {
			k.pageSite = urlutil.Site(v.PageURL)
		}
		k.haveSite = true
	}
	t.Root = &Node{
		Key:    rootKey,
		RawURL: v.PageURL,
		Type:   measurement.TypeMainFrame,
		Party:  FirstParty,
	}
	k.insert(t, t.Root, rootID)

	for _, req := range v.Requests {
		t.TotalRequests++
		key, id, wasStripped := k.key(req.URL)
		if wasStripped {
			t.StrippedURLs++
		}
		if key == rootKey {
			continue // the navigation request is the root itself
		}
		if k.node(t, key, id) != nil {
			// Equal or near-equal resources loaded via different URLs (or
			// repeatedly) merge into one node; the first observed branch
			// wins (§3.2, limitations §6).
			continue
		}
		parent := k.resolveParent(t, req, rootKey)
		node := &Node{
			Key:         key,
			RawURL:      req.URL,
			Type:        req.Type,
			Party:       k.party(req.URL, id, v.PageURL),
			Status:      req.Status,
			ContentType: req.ContentType,
			BodySize:    req.BodySize,
			Parent:      parent,
			Depth:       parent.Depth + 1,
		}
		if b.Filter != nil {
			node.Tracking = b.Filter.Matches(filterlist.Request{
				URL:     req.URL,
				PageURL: v.PageURL,
				Type:    filterType(req.Type),
			})
		}
		parent.Children = append(parent.Children, node)
		k.insert(t, node, id)
	}
	t.Finalize()
	return t, nil
}

// resolveParent implements §3.2's attribution order: redirects, then the
// latest call-stack entry, then the parent frame, then the root.
func (k *keyed) resolveParent(t *Tree, req measurement.Request, rootKey string) *Node {
	if req.RedirectFrom != "" {
		if key, id, _ := k.key(req.RedirectFrom); k.node(t, key, id) != nil {
			return k.node(t, key, id)
		}
	}
	if len(req.CallStack) > 0 && !k.b.IgnoreCallStacks {
		last := req.CallStack[len(req.CallStack)-1]
		if key, id, _ := k.key(last.URL); k.node(t, key, id) != nil {
			return k.node(t, key, id)
		}
	}
	if req.FrameID != measurement.TopFrameID && req.FrameURL != "" {
		if key, id, _ := k.key(req.FrameURL); k.node(t, key, id) != nil {
			return k.node(t, key, id)
		}
	}
	return t.nodes[rootKey]
}

func partyOf(resourceURL, pageURL string) Party {
	if urlutil.IsThirdParty(resourceURL, pageURL) {
		return ThirdParty
	}
	return FirstParty
}

// party is partyOf reading both eTLD+1s from the key cache when the
// request resolved to a cached id — the same classification without the
// two URL parses per request.
func (k *keyed) party(resourceURL string, id int32, pageURL string) Party {
	if k.haveSite && id >= 0 {
		rs := k.keys.SiteByID(id)
		if rs == "" || k.pageSite == "" || rs != k.pageSite {
			return ThirdParty
		}
		return FirstParty
	}
	return partyOf(resourceURL, pageURL)
}

// filterType maps measurement resource types onto ABP option types.
func filterType(t measurement.ResourceType) filterlist.RequestType {
	switch t {
	case measurement.TypeScript:
		return filterlist.TypeScript
	case measurement.TypeImage, measurement.TypeImageset:
		return filterlist.TypeImage
	case measurement.TypeStylesheet:
		return filterlist.TypeStylesheet
	case measurement.TypeSubFrame:
		return filterlist.TypeSubdocument
	case measurement.TypeXHR:
		return filterlist.TypeXMLHTTPRequest
	case measurement.TypeWebSocket:
		return filterlist.TypeWebSocket
	case measurement.TypeFont:
		return filterlist.TypeFont
	case measurement.TypeMedia:
		return filterlist.TypeMedia
	case measurement.TypeBeacon:
		return filterlist.TypePing
	case measurement.TypeMainFrame:
		return filterlist.TypeDocument
	case measurement.TypeCSPReport:
		return filterlist.TypeCSPReport
	default:
		return filterlist.TypeOther
	}
}
