package colstore

import (
	"fmt"
	"math"
	"sort"

	"webmeasure/internal/measurement"
	"webmeasure/internal/urlutil"
)

// VisitRow pairs a visit with its global sequence number — the visit's
// position in the dataset's insertion order. Blocks regroup visits by
// site, so the sequence column is what lets a full decode reconstruct the
// original order byte for byte (the JSONL round-trip guarantee).
type VisitRow struct {
	Seq   uint64
	Visit *measurement.Visit
}

// SiteBlock is one decoded site block: the site's visits (insertion
// order preserved within the site), their global sequence numbers, and
// the block's interned string table. Every string field of every decoded
// visit aliases an entry of Strings, so a URL observed by five profiles
// across eleven pages is one Go string, not fifty-five.
type SiteBlock struct {
	Site    string
	Seqs    []uint64
	Visits  []*measurement.Visit
	Strings []string
	// isURL marks the Strings entries a URL column references, the
	// columns of the fields measurement.Visit.AppendURLs lists.
	isURL []bool
	arena blockArena
}

// blockArena holds the arrays a block's visits are cut from: one array
// per element type for the whole block, where a decode that allocated per
// visit and per request would make thousands. Each visit's slices are cut
// with their capacity capped, so no append reaches a neighbour's elements.
// A scratch block (ScanScratch) keeps the arrays from one decode to the
// next.
type blockArena struct {
	visits     []measurement.Visit
	requests   []measurement.Request
	frames     []measurement.StackFrame
	setCookies []string
	cookies    []measurement.CookieObservation
}

// KeyCache builds a fresh pre-interned normalized-key table for the block
// from the strings its URL columns reference, and none of the cookie,
// header, content-type, status or function-name entries beside them:
// urlutil.Normalize evaluated once per distinct URL, with dense int32 key
// ids the tree builder indexes directly instead of re-normalizing and
// re-hashing every request of every visit. The marks cost no lookup:
// walking the visits' AppendURLs instead hashes every URL occurrence,
// which measured as slow as building from every string.
func (sb *SiteBlock) KeyCache() *urlutil.KeyCache {
	kc := new(urlutil.KeyCache)
	sb.fillKeys(kc)
	return kc
}

// fillKeys refills kc with the table KeyCache builds, reusing the storage
// kc grew for an earlier block.
func (sb *SiteBlock) fillKeys(kc *urlutil.KeyCache) {
	n := 0
	for _, u := range sb.isURL {
		if u {
			n++
		}
	}
	kc.Reset(n)
	for i, s := range sb.Strings {
		if sb.isURL[i] {
			kc.Add(s)
		}
	}
}

// Pages returns the block's distinct page URLs in ascending order.
func (sb *SiteBlock) Pages() []string {
	seen := make(map[string]bool, 16)
	var out []string
	for _, v := range sb.Visits {
		if !seen[v.PageURL] {
			seen[v.PageURL] = true
			out = append(out, v.PageURL)
		}
	}
	sort.Strings(out)
	return out
}

// blockEncoder encodes site blocks. A Writer keeps one for its whole
// file, so the interner's map and both buffers are allocated once and
// reused by every block instead of regrown per site.
type blockEncoder struct {
	in   interner
	head buf // site and string table
	cols buf // field-major columns
}

// encodeBlock serializes one site's visit rows as a block payload.
func encodeBlock(site string, rows []VisitRow) []byte {
	var e blockEncoder
	head, cols := e.encode(site, rows)
	return append(head, cols...)
}

// encode serializes one site's visit rows as a block payload, returned in
// two parts whose concatenation is the payload: the head (site and string
// table) and the field-major columns. The table is built while the
// columns encode (ids are first-seen order, so encoding is fully
// deterministic) and precedes them in the payload. Both slices alias the
// encoder's buffers and are valid until the next call.
func (e *blockEncoder) encode(site string, rows []VisitRow) ([]byte, []byte) {
	in := &e.in
	in.reset()
	cols := &e.cols
	cols.b = cols.b[:0]

	// Visit-level columns.
	cols.uvarint(uint64(len(rows)))
	prevSeq := uint64(0)
	for i, r := range rows {
		if i == 0 {
			cols.uvarint(r.Seq)
		} else {
			cols.uvarint(r.Seq - prevSeq) // Writer validated ascending order
		}
		prevSeq = r.Seq
	}
	for _, r := range rows {
		cols.uvarint(in.id(r.Visit.PageURL))
	}
	for _, r := range rows {
		cols.uvarint(in.id(r.Visit.Profile))
	}
	for _, r := range rows {
		var flags byte
		if r.Visit.Success {
			flags |= 1
		}
		if r.Visit.Retryable {
			flags |= 2
		}
		cols.byte(flags)
	}
	for _, r := range rows {
		cols.uvarint(in.id(r.Visit.Status))
	}
	for _, r := range rows {
		cols.uvarint(in.id(r.Visit.Failure))
	}
	for _, r := range rows {
		cols.uvarint(in.id(r.Visit.FaultKind))
	}
	for _, r := range rows {
		cols.varint(int64(r.Visit.Attempts))
	}
	for _, r := range rows {
		cols.u64le(math.Float64bits(r.Visit.StartOffsetS))
	}
	for _, r := range rows {
		cols.varint(int64(r.Visit.DurationMS))
	}
	for _, r := range rows {
		cols.uvarint(uint64(len(r.Visit.Requests)))
	}
	for _, r := range rows {
		cols.uvarint(uint64(len(r.Visit.Cookies)))
	}

	// Request columns, flattened across visits in visit order.
	eachReq := func(fn func(req *measurement.Request)) {
		for _, r := range rows {
			for i := range r.Visit.Requests {
				fn(&r.Visit.Requests[i])
			}
		}
	}
	eachReq(func(q *measurement.Request) { cols.uvarint(in.id(q.URL)) })
	eachReq(func(q *measurement.Request) { cols.byte(byte(q.Type)) })
	eachReq(func(q *measurement.Request) { cols.varint(int64(q.FrameID)) })
	eachReq(func(q *measurement.Request) { cols.uvarint(in.id(q.FrameURL)) })
	eachReq(func(q *measurement.Request) { cols.uvarint(in.id(q.RedirectFrom)) })
	eachReq(func(q *measurement.Request) { cols.varint(int64(q.Status)) })
	eachReq(func(q *measurement.Request) { cols.uvarint(in.id(q.ContentType)) })
	eachReq(func(q *measurement.Request) { cols.varint(int64(q.BodySize)) })
	// Time offsets are nondecreasing within a visit in practice, so the
	// per-visit delta keeps them single-byte; zigzag tolerates exceptions.
	for _, r := range rows {
		prev := int64(0)
		for i := range r.Visit.Requests {
			t := int64(r.Visit.Requests[i].TimeOffsetMS)
			cols.varint(t - prev)
			prev = t
		}
	}
	eachReq(func(q *measurement.Request) { cols.uvarint(in.id(q.TrueParentURL)) })
	eachReq(func(q *measurement.Request) { cols.uvarint(uint64(len(q.CallStack))) })
	eachReq(func(q *measurement.Request) {
		for _, f := range q.CallStack {
			cols.uvarint(in.id(f.FuncName))
			cols.uvarint(in.id(f.URL))
			cols.varint(int64(f.Line))
		}
	})
	eachReq(func(q *measurement.Request) { cols.uvarint(uint64(len(q.SetCookies))) })
	eachReq(func(q *measurement.Request) {
		for _, sc := range q.SetCookies {
			cols.uvarint(in.id(sc))
		}
	})

	// Cookie columns, flattened across visits in visit order.
	eachCookie := func(fn func(c *measurement.CookieObservation)) {
		for _, r := range rows {
			for i := range r.Visit.Cookies {
				fn(&r.Visit.Cookies[i])
			}
		}
	}
	eachCookie(func(c *measurement.CookieObservation) { cols.uvarint(in.id(c.Name)) })
	eachCookie(func(c *measurement.CookieObservation) { cols.uvarint(in.id(c.Domain)) })
	eachCookie(func(c *measurement.CookieObservation) { cols.uvarint(in.id(c.Path)) })
	eachCookie(func(c *measurement.CookieObservation) { cols.uvarint(in.id(c.SameSite)) })
	eachCookie(func(c *measurement.CookieObservation) {
		var flags byte
		if c.Secure {
			flags |= 1
		}
		if c.HTTPOnly {
			flags |= 2
		}
		cols.byte(flags)
	})

	e.head.b = e.head.b[:0]
	e.head.str(site)
	e.head.uvarint(uint64(len(in.strs)))
	for _, s := range in.strs {
		e.head.str(s)
	}
	return e.head.b, cols.b
}

// decodeBlock parses a block payload into a fresh block.
func decodeBlock(payload []byte) (*SiteBlock, error) {
	sb := new(SiteBlock)
	if err := sb.decode(payload); err != nil {
		return nil, err
	}
	return sb, nil
}

// reuse returns n zeroed elements: a prefix of s when s holds an array of
// at least n from an earlier decode, a new array otherwise. Like make, it
// never returns nil.
func reuse[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// cut reads a column of n element counts and hands count i's span of one
// shared array to set(i, span), skipping zero counts so their slices stay
// nil. It reads the column twice: once to total it and size the array —
// reused from arr when it is large enough — and once more to cut the
// spans. Every counted element takes at least one byte of the columns
// after this one, so a total beyond the bytes left is corruption and sizes
// nothing.
func cut[T any](c *cur, what string, n int, arr []T, set func(i int, span []T)) []T {
	start, total := c.off, 0
	for i := 0; i < n; i++ {
		total += c.count(what)
	}
	if c.err == nil && total > len(c.b)-c.off {
		c.fail("colstore: %d %s elements exceed the remaining %d bytes", total, what, len(c.b)-c.off)
	}
	if c.err != nil {
		return arr
	}
	arr = reuse(arr, total)
	c.off = start
	lo := 0
	for i := 0; i < n; i++ {
		if k := c.count(what); k > 0 {
			set(i, arr[lo:lo+k:lo+k])
			lo += k
		}
	}
	return arr
}

// decode parses a block payload into sb. It is the one decode kernel, for
// a fresh block and a scratch block alike: every array comes from the
// arrays sb holds from an earlier decode when they are large enough, so a
// scratch block grows to the largest block it decodes and then allocates
// only the strings, and every element is zeroed before it is filled, so
// the result equals a fresh decode's, nil slices included. Corrupted or
// truncated payloads yield an error, never a panic or an unbounded
// allocation; sb then holds no usable block.
func (sb *SiteBlock) decode(payload []byte) error {
	c := &cur{b: payload}
	site := c.str()
	nstr := c.count("string table")
	if c.err != nil {
		return c.err
	}
	strs := reuse(sb.Strings, nstr)
	for i := range strs {
		strs[i] = c.str()
	}
	isURL := reuse(sb.isURL, nstr)
	sb.Strings, sb.isURL = strs, isURL
	// ref reads one string reference; lookup resolves it, and lookupURL,
	// for a URL column, also marks it in isURL for KeyCache.
	ref := func(what string) (uint64, bool) {
		id := c.uvarint()
		if c.err != nil {
			return 0, false
		}
		if id >= uint64(len(strs)) {
			c.fail("colstore: %s string id %d out of range (table holds %d)", what, id, len(strs))
			return 0, false
		}
		return id, true
	}
	lookup := func(what string) string {
		if id, ok := ref(what); ok {
			return strs[id]
		}
		return ""
	}
	lookupURL := func(what string) string {
		if id, ok := ref(what); ok {
			isURL[id] = true
			return strs[id]
		}
		return ""
	}

	nv := c.count("visit")
	if c.err != nil {
		return c.err
	}
	ar := &sb.arena
	sb.Site = site
	sb.Seqs = reuse(sb.Seqs, nv)
	sb.Visits = reuse(sb.Visits, nv)
	ar.visits = reuse(ar.visits, nv)
	visits := ar.visits
	for i := range visits {
		sb.Visits[i] = &visits[i]
		visits[i].Site = site
	}
	prevSeq := uint64(0)
	for i := 0; i < nv; i++ {
		d := c.uvarint()
		if i == 0 {
			prevSeq = d
		} else {
			prevSeq += d
		}
		sb.Seqs[i] = prevSeq
	}
	for i := 0; i < nv; i++ {
		visits[i].PageURL = lookupURL("page URL")
	}
	for i := 0; i < nv; i++ {
		visits[i].Profile = lookup("profile")
	}
	for i := 0; i < nv; i++ {
		flags := c.byte()
		visits[i].Success = flags&1 != 0
		visits[i].Retryable = flags&2 != 0
	}
	for i := 0; i < nv; i++ {
		visits[i].Status = lookup("status")
	}
	for i := 0; i < nv; i++ {
		visits[i].Failure = lookup("failure")
	}
	for i := 0; i < nv; i++ {
		visits[i].FaultKind = lookup("fault kind")
	}
	for i := 0; i < nv; i++ {
		visits[i].Attempts = int(c.varint())
	}
	for i := 0; i < nv; i++ {
		visits[i].StartOffsetS = math.Float64frombits(c.u64le())
	}
	for i := 0; i < nv; i++ {
		visits[i].DurationMS = int(c.varint())
	}
	ar.requests = cut(c, "request", nv, ar.requests, func(i int, s []measurement.Request) { visits[i].Requests = s })
	if c.err != nil {
		return c.err
	}
	ar.cookies = cut(c, "cookie", nv, ar.cookies, func(i int, s []measurement.CookieObservation) { visits[i].Cookies = s })
	if c.err != nil {
		return c.err
	}

	// Request columns, flattened across visits in visit order: the order
	// the visits' spans of ar.requests follow.
	reqs := ar.requests
	eachReq := func(fn func(q *measurement.Request)) {
		for j := range reqs {
			if c.err != nil {
				return
			}
			fn(&reqs[j])
		}
	}
	eachReq(func(q *measurement.Request) { q.URL = lookupURL("request URL") })
	eachReq(func(q *measurement.Request) { q.Type = measurement.ResourceType(c.byte()) })
	eachReq(func(q *measurement.Request) { q.FrameID = int(c.varint()) })
	eachReq(func(q *measurement.Request) { q.FrameURL = lookupURL("frame URL") })
	eachReq(func(q *measurement.Request) { q.RedirectFrom = lookupURL("redirect source") })
	eachReq(func(q *measurement.Request) { q.Status = int(c.varint()) })
	eachReq(func(q *measurement.Request) { q.ContentType = lookup("content type") })
	eachReq(func(q *measurement.Request) { q.BodySize = int(c.varint()) })
	for i := range visits {
		prev := int64(0)
		for j := range visits[i].Requests {
			prev += c.varint()
			visits[i].Requests[j].TimeOffsetMS = int(prev)
		}
	}
	eachReq(func(q *measurement.Request) { q.TrueParentURL = lookupURL("true parent URL") })
	ar.frames = cut(c, "call stack", len(reqs), ar.frames, func(j int, s []measurement.StackFrame) { reqs[j].CallStack = s })
	eachReq(func(q *measurement.Request) {
		for k := range q.CallStack {
			q.CallStack[k].FuncName = lookup("stack function")
			q.CallStack[k].URL = lookupURL("stack URL")
			q.CallStack[k].Line = int(c.varint())
		}
	})
	ar.setCookies = cut(c, "set-cookie", len(reqs), ar.setCookies, func(j int, s []string) { reqs[j].SetCookies = s })
	eachReq(func(q *measurement.Request) {
		for k := range q.SetCookies {
			q.SetCookies[k] = lookup("set-cookie header")
		}
	})

	// Cookie columns, flattened across visits in visit order.
	cookies := ar.cookies
	eachCookie := func(fn func(ck *measurement.CookieObservation)) {
		for j := range cookies {
			if c.err != nil {
				return
			}
			fn(&cookies[j])
		}
	}
	eachCookie(func(ck *measurement.CookieObservation) { ck.Name = lookup("cookie name") })
	eachCookie(func(ck *measurement.CookieObservation) { ck.Domain = lookup("cookie domain") })
	eachCookie(func(ck *measurement.CookieObservation) { ck.Path = lookup("cookie path") })
	eachCookie(func(ck *measurement.CookieObservation) { ck.SameSite = lookup("cookie samesite") })
	eachCookie(func(ck *measurement.CookieObservation) {
		flags := c.byte()
		ck.Secure = flags&1 != 0
		ck.HTTPOnly = flags&2 != 0
	})

	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("colstore: block payload has %d trailing bytes", len(c.b)-c.off)
	}
	return nil
}
