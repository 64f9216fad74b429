package service

import "container/list"

// resultCache is a plain LRU over canonical spec keys. The experiment is
// deterministic for a fixed spec (same seed → same bytes, the repo's
// golden test), so a hit is a correctness-preserving free answer: the
// cached artifacts are exactly what a re-run would produce. Not
// concurrency-safe on its own; the Server serializes access under its
// mutex.
type resultCache struct {
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	res *result
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached result for key and refreshes its recency.
func (c *resultCache) get(key string) (*result, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores a result, evicting the least recently used entry past cap.
func (c *resultCache) put(key string, res *result) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// len returns the number of cached results.
func (c *resultCache) len() int { return c.order.Len() }
